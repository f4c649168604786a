package detect

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/simulator"
)

// denseRequires is the reference derivation of an event's causal
// requirements: the local predecessor plus one requirement per nonzero
// remote clock component, whatever the process's previous event
// already implied. frontier.requires must yield the same closures.
func denseRequires(f *frontier, ev Event) []int64 {
	var reqs []int64
	if own := ev.VC[ev.Proc]; own >= 2 {
		reqs = append(reqs, f.id(ev.Proc, own-1))
	}
	for q, v := range ev.VC {
		if q != ev.Proc && v >= 1 {
			reqs = append(reqs, f.id(q, v))
		}
	}
	return reqs
}

// scramble returns a random causality-respecting permutation of a
// linearized event stream: at every step it delivers the next event of
// a random process whose causal past has been delivered.
func scramble(rng *rand.Rand, events []Event, procs int) []Event {
	queues := make([][]Event, procs)
	for _, ev := range events {
		queues[ev.Proc] = append(queues[ev.Proc], ev)
	}
	delivered := make([]int64, procs)
	ready := func(ev Event) bool {
		for q, v := range ev.VC {
			if q != ev.Proc && v > delivered[q] {
				return false
			}
		}
		return true
	}
	out := make([]Event, 0, len(events))
	var cands []int
	for len(out) < len(events) {
		cands = cands[:0]
		for p, q := range queues {
			if len(q) > 0 && ready(q[0]) {
				cands = append(cands, p)
			}
		}
		p := cands[rng.Intn(len(cands))]
		out = append(out, queues[p][0])
		queues[p] = queues[p][1:]
		delivered[p]++
	}
	return out
}

// rangeCase is one detector family under test: its spec and how to
// label the computation.
type rangeCase struct {
	spec  pred.Spec
	label func(seed int64, c *computation.Computation)
}

func rangeCases() []rangeCase {
	unit := func(seed int64, c *computation.Computation) { gen.UnitStepVar(seed, c, "x") }
	boolVar := func(seed int64, c *computation.Computation) { gen.BoolVar(seed, c, "x", 0.5) }
	return []rangeCase{
		{pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 1}, unit},
		{pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 3},
			func(seed int64, c *computation.Computation) { gen.ArbitraryStepVar(seed, c, "x", 3) }},
		{pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Lt, K: -2}, unit},
		{pred.Spec{Family: pred.InFlight, Rel: relsum.Ge, K: 2}, nil},
		{pred.Spec{Family: pred.Count, Var: "x", Rel: relsum.Ge, K: 2}, boolVar},
		{pred.Spec{Family: pred.Xor, Var: "x"}, boolVar},
		{pred.Spec{Family: pred.Levels, Var: "x", Levels: []int{0, 3}}, boolVar},
	}
}

// TestRangeDetectorsMatchDenseRequirements streams random computations
// in random causality-respecting orders through the sum, inflight,
// count, xor and levels detectors, flushing at random intervals. At
// every flush the detector's range must equal that of a reference
// tracker fed the dense requirements and pruned on the same schedule,
// and at close it must equal the range batch Possibly reports.
func TestRangeDetectorsMatchDenseRequirements(t *testing.T) {
	for _, tc := range rangeCases() {
		entry, ok := Lookup(tc.spec.Family, ModalityPossibly)
		if !ok {
			t.Fatalf("%v: not registered", tc.spec.Family)
		}
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gen.Random(gen.Params{
				Seed:    seed,
				Procs:   2 + rng.Intn(5),
				Events:  2 + rng.Intn(9),
				MsgFrac: 2 * rng.Float64(),
			})
			if tc.label != nil {
				tc.label(seed, c)
			}
			name := fmt.Sprintf("%v seed %d", tc.spec.Family, seed)
			events, cfg := linearize(c, tc.spec)
			det, err := entry.New(tc.spec, cfg)
			if err != nil {
				t.Fatalf("%s: new: %v", name, err)
			}

			// The reference: a tracker over the same per-event changes
			// with dense requirements and its own frontier.
			procs := cfg.Procs
			refFr := newFrontier(procs)
			last := make([]int64, procs)
			var base int64
			for p, v := range cfg.Init {
				if entry.Caps.Payload == PayloadTruth && v != 0 {
					v = 1
				}
				last[p] = v
				base += v
			}
			ref := relsum.NewRangeTracker(base)
			change := func(ev Event) int64 {
				var v int64
				switch entry.Caps.Payload {
				case PayloadDelta:
					return ev.Val
				case PayloadTruth:
					if ev.Truth {
						v = 1
					}
				default:
					v = ev.Val
				}
				d := v - last[ev.Proc]
				last[ev.Proc] = v
				return d
			}

			flush := func(at int) {
				det.Flush()
				ref.Flush()
				if ids := refFr.stable(); len(ids) > 0 {
					ref.Prune(ids)
				}
				snap := det.Snapshot()
				if min, max := ref.Range(); snap.Min != min || snap.Max != max {
					t.Fatalf("%s: after %d events: range [%d, %d], dense reference [%d, %d]",
						name, at, snap.Min, snap.Max, min, max)
				}
				if snap.Window != ref.Window() {
					t.Fatalf("%s: after %d events: window %d, dense reference %d", name, at, snap.Window, ref.Window())
				}
			}
			next := 1 + rng.Intn(6)
			for i, ev := range scramble(rng, events, procs) {
				if err := det.Step(ev); err != nil {
					t.Fatalf("%s: step: %v", name, err)
				}
				ref.Observe(refFr.id(ev.Proc, ev.VC[ev.Proc]), change(ev), denseRequires(refFr, ev))
				refFr.observe(ev)
				if i+1 == next {
					flush(i + 1)
					next += 1 + rng.Intn(6)
				}
			}
			flush(len(events))
			snap := det.Snapshot()
			batch, err := Batch(c, tc.spec, ModalityPossibly, Options{Parallelism: 1}, nil)
			if err != nil {
				t.Fatalf("%s: batch: %v", name, err)
			}
			if snap.Min != batch.Min || snap.Max != batch.Max {
				t.Fatalf("%s: closing range [%d, %d], batch [%d, %d]", name, snap.Min, snap.Max, batch.Min, batch.Max)
			}
		}
	}
}

// TestCountDetectorsAgreeWithBatch streams random computations in
// random causal orders through the count, xor and levels detectors,
// flushing every few events, and requires the verdict latched at close
// to equal the batch Possibly route's across several symmetric specs
// (exclusive-or, exactly half, no simple majority, not all equal).
func TestCountDetectorsAgreeWithBatch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		c := gen.Random(gen.Params{Seed: seed, Procs: 3 + int(seed%3), Events: 7, MsgFrac: 0.4})
		gen.BoolVar(seed+5, c, "b", 0.4)
		n := c.NumProcs()
		var notAllEqual []int
		for m := 1; m < n; m++ {
			notAllEqual = append(notAllEqual, m)
		}
		specs := []pred.Spec{
			{Family: pred.Xor, Var: "b"},
			{Family: pred.Count, Var: "b", Rel: relsum.Eq, K: int64(n / 2)},
			{Family: pred.Count, Var: "b", Rel: relsum.Le, K: int64(n / 2)},
			{Family: pred.Levels, Var: "b", Levels: notAllEqual},
		}
		for _, spec := range specs {
			entry, _ := Lookup(spec.Family, ModalityPossibly)
			events, cfg := linearize(c, spec)
			det, err := entry.New(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range scramble(rng, events, n) {
				if err := det.Step(ev); err != nil {
					t.Fatal(err)
				}
				if i%4 == 3 {
					det.Flush()
				}
			}
			got := det.Flush()
			want, err := Batch(c, spec, ModalityPossibly, Options{Parallelism: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Holds {
				t.Fatalf("seed %d %v: streamed %v, batch Possibly %v", seed, spec, got, want.Holds)
			}
		}
	}
}

// BenchmarkRangeDetectorGossip streams 32 gossiper traces (8 processes,
// 120 steps) through the range detectors the way a sum-stream session
// runs them: three traces in four watch sum(level) == k, the fourth
// inflight >= k, with a flush every 640 events. It reports the detector
// loop's cost and garbage per event; CI holds allocs/event under a
// ceiling.
func BenchmarkRangeDetectorGossip(b *testing.B) {
	type trace struct {
		entry  Entry
		spec   pred.Spec
		events []Event
		cfg    Config
	}
	var traces []trace
	total := 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		c, err := simulator.New(rng.Int63(), simulator.NewGossiperProcs(8, 120, 250)).Run()
		if err != nil {
			b.Fatal(err)
		}
		spec := pred.Spec{Family: pred.Sum, Var: simulator.VarLevel, Rel: relsum.Eq, K: int64(rng.Intn(25) - 12)}
		if i%4 == 3 {
			spec = pred.Spec{Family: pred.InFlight, Rel: relsum.Ge, K: int64(1 + rng.Intn(4))}
		}
		entry, _ := Lookup(spec.Family, ModalityPossibly)
		events, cfg := linearize(c, spec)
		traces = append(traces, trace{entry, spec, events, cfg})
		total += len(events)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, tc := range traces {
			det, err := tc.entry.New(tc.spec, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i, ev := range tc.events {
				if err := det.Step(ev); err != nil {
					b.Fatal(err)
				}
				if (i+1)%640 == 0 {
					det.Flush()
				}
			}
			det.Flush()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	events := float64(b.N) * float64(total)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/events, "allocs/event")
}
