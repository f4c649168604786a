package main

import (
	"fmt"
	"os"
	"time"

	"github.com/distributed-predicates/gpd/internal/stream"
)

func runSumStream(seed int64, d time.Duration, traced bool) (*report, result, error) {
	in, err := genSumStream(seed)
	if err != nil {
		return nil, result{}, err
	}
	if traced {
		return traceStream(in, d)
	}
	return runStream(in, d, benchConfig())
}

func runMuxReorder(seed int64, d time.Duration, traced bool) (*report, result, error) {
	in, err := genMuxReorder(seed)
	if err != nil {
		return nil, result{}, err
	}
	if traced {
		return traceStream(in, d)
	}
	return runStream(in, d, benchConfig())
}

// measureSetup starts the harness setupRounds times, keeps the last one
// running and returns it with the median set-up and registration times.
func measureSetup(in *streamInputs, cfg stream.Config) (*harness, float64, float64, error) {
	var setups, registers []float64
	for i := 0; ; i++ {
		h, setup, register, err := startHarness(in, cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, setup.Seconds())
		registers = append(registers, register.Seconds())
		if i == setupRounds-1 {
			return h, median(setups), median(registers), nil
		}
		h.close()
	}
}

// runStream is the untraced end-to-end run of a stream workload:
// set-up, then phaseRounds closed-loop saturation rounds sharing
// saturationShare of d, then one open loop for the rest, its samples
// split into phaseRounds windows. Rates, CPU, heap and p50s are medians
// over the rounds or windows, so a burst of interference from the rest
// of the machine moves one round, not the figure; p99s are taken over
// every sample, so that at least ten samples lie beyond them.
func runStream(in *streamInputs, d time.Duration, cfg stream.Config) (*report, result, error) {
	h, setup, register, err := measureSetup(in, cfg)
	if err != nil {
		return nil, result{}, err
	}
	defer h.close()
	all := &outcome{}
	var rates, cpus, peaks []float64
	satEvents := 0
	for k := 0; k < phaseRounds; k++ {
		heap := startHeapSampler()
		cpu0 := cpuNow()
		sat, took := saturate(h, in, time.Duration(float64(d)*saturationShare/phaseRounds), k == 0, nil)
		cpus = append(cpus, float64(cpuNow()-cpu0)/float64(time.Microsecond)/float64(max(sat.events, 1)))
		peaks = append(peaks, heap.finish())
		all.merge(sat)
		rates = append(rates, float64(sat.events)/took.Seconds())
		satEvents += int(sat.events)
	}
	// One continuous open loop, so no round pays for a session's set-up
	// frames on its own; its samples are split into phaseRounds windows
	// by due time.
	heap := startHeapSampler()
	olTime := time.Duration(float64(d) * (1 - saturationShare))
	t0 := time.Now()
	ol := openLoop(h, in, olTime, nil)
	peaks = append(peaks, heap.finish())
	all.merge(ol)
	v50 := windowMedians(ol.verdictLat, ol.verdictDue, t0, olTime)
	a50 := windowMedians(ol.appendLat, ol.appendDue, t0, olTime)
	verdicts, acks, lag := ol.verdictLat, ol.appendLat, ol.lag
	shed := int64(h.eng.Snapshot().Dropped)
	all.failed += shed
	rep := newReport()
	rep.text("# %s: %d scripts, %d oracle detections, open-loop rate %.0f events/s", in.workload, len(in.scripts), in.oracles, in.rate)
	rep.text("# rates and p50s are medians over %d saturation rounds or open-loop windows; p99s are over every sample", phaseRounds)
	rep.add("setup_s", setup, "s", setupRounds)
	rep.note("register_s", register, "s", setupRounds)
	rep.note("events_per_s", median(rates), "1/s", satEvents)
	rep.add("cpu_us_per_event", median(cpus), "us", satEvents)
	rep.note("verdict_p50_ms", median(v50), "ms", len(verdicts))
	rep.note("verdict_p99_ms", ms(verdicts.quantile(0.99)), "ms", len(verdicts))
	rep.add("heap_peak_mb", median(peaks), "MiB", 0)
	rep.note("append_p50_us", median(a50)*1000, "us", len(acks))
	rep.note("append_p99_us", us(acks.quantile(0.99)), "us", len(acks))
	rep.note("ops_failed_frac", float64(all.failed)/float64(max(all.attempted, 1)), "frac", int(all.attempted))
	rep.note("shed_frames", float64(shed), "count", 0)
	rep.note("loadgen.lag_p99_ms", ms(lag.quantile(0.99)), "ms", len(lag))
	return rep, finish(all), nil
}

// windowMedians splits a phase of length d starting at t0 into
// phaseRounds windows by each sample's due time and returns each
// window's median, in ms.
func windowMedians(lat latencies, due []time.Time, t0 time.Time, d time.Duration) []float64 {
	windows := make([]latencies, phaseRounds)
	for i, l := range lat {
		w := min(max(int(due[i].Sub(t0)*phaseRounds/d), 0), phaseRounds-1)
		windows[w] = append(windows[w], l)
	}
	var out []float64
	for _, w := range windows {
		if len(w) > 0 {
			out = append(out, ms(w.quantile(0.5)))
		}
	}
	return out
}

// finish turns a run's outcome into the result line, reporting any
// verdict mismatch and the first failures on standard error.
func finish(o *outcome) result {
	for i, m := range o.mismatches {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "mismatch: ... %d more\n", len(o.mismatches)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	for _, e := range o.errors {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	return result{Correct: len(o.mismatches) == 0, Attempted: max(o.attempted, 1), Failed: o.failed}
}
