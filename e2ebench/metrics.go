package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract the benchmark's
// callers parse.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's figures in print order. Every figure is
// printed as a human-readable line; the ones added with add also go into
// the JSON result line.
type report struct {
	entries []entry
	metrics map[string]metric
}

// entry is one printed line: a figure, or free text.
type entry struct {
	text    string
	name    string
	unit    string
	value   float64
	samples int
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// add records a figure that belongs in the result line.
func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, samples)
}

// note prints a figure without putting it in the result line.
func (r *report) note(name string, v float64, unit string, samples int) {
	r.entries = append(r.entries, entry{name: name, unit: unit, value: v, samples: samples})
}

// text prints a free-form report line.
func (r *report) text(format string, args ...any) {
	r.entries = append(r.entries, entry{text: fmt.Sprintf(format, args...)})
}

// keepMedian sets every timing figure of r to its median over r and
// the other reports (repeats of the same measurement).
func (r *report) keepMedian(others []*report) {
	for i, e := range r.entries {
		if e.name == "" || !isTime(e.unit) {
			continue
		}
		xs := []float64{e.value}
		for _, o := range others {
			for _, oe := range o.entries {
				if oe.name == e.name {
					xs = append(xs, oe.value)
				}
			}
		}
		r.entries[i].value = median(xs)
		if m, ok := r.metrics[e.name]; ok {
			m.Value = r.entries[i].value
			r.metrics[e.name] = m
		}
	}
}

func isTime(unit string) bool { return unit == "ns" || unit == "us" || unit == "ms" }

func (r *report) write(w io.Writer, res result) error {
	for _, e := range r.entries {
		line := e.text
		if e.name != "" {
			line = fmt.Sprintf("%-44s %14.6g %-6s", e.name, e.value, e.unit)
			if e.samples > 0 {
				line += fmt.Sprintf(" n=%d", e.samples)
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	res.Metrics = r.metrics
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// latencies is a sample of durations.
type latencies []time.Duration

// quantile returns the q-quantile by the nearest-rank method.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// median returns the median of a float sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler polls /gc/heap/live:bytes and keeps the peak. The live
// heap is updated at the end of every GC cycle, so polling every few
// milliseconds sees every value it takes.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU returns the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// allocMeter measures heap allocations over a stretch of code.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

// since returns the allocations and bytes allocated since start.
func (a allocMeter) since() (allocs, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs - a.mallocs), float64(m.TotalAlloc - a.bytes)
}

// span is one traced call into a layer. Frame groups the spans of one
// input frame; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Frame  int    `json:"frame"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so untraced code paths pay one
// nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, frame int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Frame: frame, Parent: parent, Start: int64(time.Since(t.t0))})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = int64(time.Since(t.t0))
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == idx {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// record appends an already-measured root span (used by goroutines that
// time a request from its due time to its reply).
func (t *tracer) record(name string, frame int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Frame: frame, Parent: -1,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// names returns the distinct span names recorded.
func (t *tracer) names() []string {
	seen := make(map[string]bool)
	for _, s := range t.spans {
		seen[s.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// writeJSON writes every span.
func (t *tracer) writeJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.spans)
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; layers a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"stream.wire.decode_ns_per_event", "ns"},
	{"stream.wire.decode_allocs_per_event", "count"},
	{"stream.wire.decode_bytes_per_event", "B"},
	{"stream.wire.frame_bytes_per_event", "B"},
	{"stream.wire.encode_ns_per_reply", "ns"},
	{"stream.server.ns_per_event", "ns"},
	{"stream.engine.ns_per_event", "ns"},
	{"stream.engine.allocs_per_event", "count"},
	{"stream.engine.frames_per_batch", "count"},
	{"stream.engine.queue_high_water", "count"},
	{"stream.engine.shed_frames", "count"},
	{"stream.session.ns_per_event", "ns"},
	{"stream.session.flushes_per_frame", "count"},
	{"mux.delivery.ns_per_event", "ns"},
	{"mux.delivery.allocs_per_event", "count"},
	{"mux.delivery.holdback_mean", "count"},
	{"mux.delivery.holdback_max", "count"},
	{"mux.delivery.early_frac", "frac"},
	{"mux.group.route_ns_per_event", "ns"},
	{"mux.group.steps_per_event", "count"},
	{"mux.group.skipped_per_event", "count"},
	{"mux.group.register_us", "us"},
	{"mux.group.unregister_us", "us"},
	{"detect.sum.step_ns_per_event", "ns"},
	{"detect.sum.flush_ns_per_event", "ns"},
	{"detect.sum.allocs_per_event", "count"},
	{"detect.sum.window_mean", "count"},
	{"detect.sum.augmenting_paths_per_flush", "count"},
	{"detect.sum.graph_arcs_per_flush", "count"},
	{"detect.inflight.step_ns_per_event", "ns"},
	{"detect.inflight.flush_ns_per_event", "ns"},
	{"detect.inflight.allocs_per_event", "count"},
	{"detect.inflight.window_mean", "count"},
	{"detect.conjunctive.step_ns_per_event", "ns"},
	{"detect.conjunctive.flush_ns_per_event", "ns"},
	{"detect.conjunctive.allocs_per_event", "count"},
	{"detect.conjunctive.window_mean", "count"},
	{"detect.count.step_ns_per_event", "ns"},
	{"detect.count.flush_ns_per_event", "ns"},
	{"detect.count.allocs_per_event", "count"},
	{"detect.count.window_mean", "count"},
	{"detect.xor.step_ns_per_event", "ns"},
	{"detect.xor.flush_ns_per_event", "ns"},
	{"detect.xor.allocs_per_event", "count"},
	{"detect.xor.window_mean", "count"},
	{"detect.levels.step_ns_per_event", "ns"},
	{"detect.levels.flush_ns_per_event", "ns"},
	{"detect.levels.allocs_per_event", "count"},
	{"detect.levels.window_mean", "count"},
	{"slicing.observe_ns_per_event", "ns"},
	{"slicing.retained_max", "count"},
	{"slicing.compacted_frac", "frac"},
	{"batch.sum.possibly_ms_p50", "ms"},
	{"batch.sum.definitely_ms_p50", "ms"},
	{"batch.conjunctive.possibly_ms_p50", "ms"},
	{"batch.conjunctive.definitely_ms_p50", "ms"},
	{"batch.levels.possibly_ms_p50", "ms"},
	{"batch.levels.definitely_ms_p50", "ms"},
	{"batch.count.possibly_ms_p50", "ms"},
	{"batch.equilevel.possibly_ms_p50", "ms"},
	{"batch.equilevel.definitely_ms_p50", "ms"},
	{"batch.cnf.possibly_ms_p50", "ms"},
	{"batch.inflight.possibly_ms_p50", "ms"},
	{"batch.slice.possibly_ms_p50", "ms"},
	{"batch.seal_ms", "ms"},
	{"batch.maxflow.augmenting_paths", "count"},
	{"batch.maxflow.graph_arcs", "count"},
	{"batch.lattice.level_cuts_explored", "count"},
	{"batch.conjunctive.tokens_advanced", "count"},
	{"batch.singular.cpdhb_runs", "count"},
	{"process.cpu_ns_per_event", "ns"},
	{"process.gc_cpu_frac", "frac"},
	{"process.alloc_bytes_per_event", "B"},
	{"other.ns_per_event", "ns"},
	{"loadgen.lag_p99_ms", "ms"},
}

// endToEnd lists the end-to-end metrics of the result line with their
// units: the figures whose run-to-run spread stays within the bounds
// BENCHMARK.json sets. Throughput and latencies are printed too, but
// follow the host's CPU steal too closely to gate on (see NOTES.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_event", "us"},
	{"heap_peak_mb", "MiB"},
}

// fillZeros reports 0 for every per-layer metric the workload does not
// exercise.
func fillZeros(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.metrics[m.name] = metric{Value: 0, Unit: m.unit}
		}
	}
}
