package slicing

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
)

// streamSlice replays a sealed computation into an IncrementalSlicer
// event by event — the online vector-clock convention drops initial
// events from the sealed clocks — compacting every compactEvery events,
// and returns the slicer plus every emitted irreducible keyed by
// (process, local index).
func streamSlice(t *testing.T, c *computation.Computation, locals map[computation.ProcID]func(computation.Event) bool, compactEvery int) (*IncrementalSlicer, map[[2]int][]int) {
	t.Helper()
	truthOf := func(e computation.Event) bool {
		if fn, ok := locals[e.Proc]; ok {
			return fn(e)
		}
		return true
	}
	initial := make([]bool, c.NumProcs())
	for p := range initial {
		initial[p] = truthOf(c.Initial(computation.ProcID(p)))
	}
	inc := NewIncrementalSlicer(c.NumProcs(), initial)
	irr := make(map[[2]int][]int)
	inc.OnIrreducible = func(p, idx int, least []int) { irr[[2]int{p, idx}] = least }
	n := 0
	for _, id := range c.Topo() {
		e := c.Event(id)
		if e.IsInitial() {
			continue
		}
		clk := c.Clock(id)
		vc := make([]int64, len(clk))
		for q, v := range clk {
			if v >= 1 {
				vc[q] = int64(v) - 1
			}
		}
		if err := inc.Observe(int(e.Proc), vc, truthOf(e)); err != nil {
			t.Fatalf("Observe(%v): %v", e, err)
		}
		n++
		if compactEvery > 0 && n%compactEvery == 0 {
			inc.Compact()
		}
	}
	inc.Seal()
	inc.Compact()
	return inc, irr
}

// TestIncrementalMatchesOffline streams random computations event by
// event — with aggressive mid-stream compaction — and checks the
// incremental slicer reconstructs the identical slice the offline
// constructor computes on the sealed computation: same bottom, same
// join-irreducible per event, same exclusions, same top.
func TestIncrementalMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nonEmpty := 0
	for trial := 0; trial < 150; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.5})
		truth := gen.BoolTables(rng.Int63(), c, 0.6)
		locals := localsFromTables(truth)
		inc, irr := streamSlice(t, c, locals, 3)

		o := ConjunctiveOracle(locals)
		s, err := Compute(c, o)
		if errors.Is(err, ErrEmpty) {
			if inc.Possibly() {
				t.Fatalf("trial %d: offline slice empty but incremental latched Possibly with bottom %v", trial, inc.Bottom())
			}
			if inc.Irreducibles() != 0 {
				t.Fatalf("trial %d: empty slice but %d irreducibles completed", trial, inc.Irreducibles())
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nonEmpty++
		if !inc.Possibly() {
			t.Fatalf("trial %d: offline bottom %v but incremental never latched", trial, s.Bottom())
		}
		if !cutsEqual(inc.Bottom(), s.Bottom()) {
			t.Fatalf("trial %d: incremental bottom %v, offline %v", trial, inc.Bottom(), s.Bottom())
		}
		var excludedWant int64
		c.Events(func(e computation.Event) bool {
			if e.IsInitial() {
				return true
			}
			j := s.leastContaining(o, e)
			got, ok := irr[[2]int{int(e.Proc), e.Index}]
			if j == nil {
				excludedWant++
				if ok {
					t.Fatalf("trial %d: event %v is excluded offline but incremental found J = %v", trial, e, got)
				}
				if e.Index < inc.ExcludedFrom(int(e.Proc)) {
					t.Fatalf("trial %d: event %v excluded offline but not by the sealed slicer (ExcludedFrom = %d)", trial, e, inc.ExcludedFrom(int(e.Proc)))
				}
				return true
			}
			if !ok {
				t.Fatalf("trial %d: no incremental irreducible for event %v (offline J = %v)", trial, e, j)
			}
			if !cutsEqual(got, j) {
				t.Fatalf("trial %d: J(%v) incremental %v, offline %v", trial, e, got, j)
			}
			return true
		})
		if inc.Excluded() != excludedWant {
			t.Fatalf("trial %d: Excluded() = %d, offline excludes %d", trial, inc.Excluded(), excludedWant)
		}
		if !cutsEqual(inc.Top(), s.Top()) {
			t.Fatalf("trial %d: incremental top %v, offline %v", trial, inc.Top(), s.Top())
		}
	}
	if nonEmpty < 30 {
		t.Fatalf("only %d/150 non-empty slices; generator too sparse to be meaningful", nonEmpty)
	}
}

func cutsEqual(got []int, want computation.Cut) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestIncrementalCompactionBoundsMemory drives a long communicating
// stream with a frequently true predicate through the slicer, compacting
// as it goes, and checks the retained window stays far below the event
// count — the property the stream engine's sliced sessions rely on.
func TestIncrementalCompactionBoundsMemory(t *testing.T) {
	const (
		procs  = 4
		rounds = 5000
	)
	inc := NewIncrementalSlicer(procs, nil)
	vcs := make([][]int64, procs)
	for p := range vcs {
		vcs[p] = make([]int64, procs)
	}
	peak := 0
	events := 0
	for i := 0; i < rounds; i++ {
		p := i % procs
		// Receive from the previous process first (a ring), then tick.
		q := (p + procs - 1) % procs
		for r := 0; r < procs; r++ {
			if vcs[q][r] > vcs[p][r] {
				vcs[p][r] = vcs[q][r]
			}
		}
		vcs[p][p]++
		vc := append([]int64(nil), vcs[p]...)
		// The local predicate flips, true four fifths of the time — the
		// tight ring makes consistent cuts near-prefixes, so satisfying
		// windows need runs of consecutive true events.
		if err := inc.Observe(p, vc, i%5 != 0); err != nil {
			t.Fatal(err)
		}
		events++
		if i%8 == 0 {
			inc.Compact()
			if r := inc.Retained(); r > peak {
				peak = r
			}
		}
	}
	inc.Compact()
	if !inc.Possibly() {
		t.Fatal("ring stream never satisfied the predicate")
	}
	if want := events / 10; peak > want {
		t.Fatalf("peak retained window %d events over a %d-event stream; compaction is not bounding memory", peak, events)
	}
	if inc.Compacted() == 0 {
		t.Fatal("Compact never freed an event")
	}
	spans := inc.Frontier()
	total := 0
	for p, sp := range spans {
		if n := sp.End - sp.Start + 1; n >= 0 {
			total += n
		} else {
			t.Fatalf("process %d frontier %+v malformed", p, sp)
		}
	}
	if total != inc.Retained() {
		t.Fatalf("frontier covers %d events, Retained() = %d", total, inc.Retained())
	}
}

// TestIncrementalObserveErrors pins the delivery-order validation.
func TestIncrementalObserveErrors(t *testing.T) {
	inc := NewIncrementalSlicer(2, nil)
	if err := inc.Observe(0, []int64{2, 0}, true); err == nil {
		t.Fatal("skipping the first event of a process must error")
	}
	if err := inc.Observe(0, []int64{1, 1}, true); err == nil {
		t.Fatal("delivering an event before its causal past must error")
	}
	if err := inc.Observe(0, []int64{1, 0}, true); err != nil {
		t.Fatal(err)
	}
	if err := inc.Observe(2, []int64{0, 0}, true); err == nil {
		t.Fatal("out-of-range process must error")
	}
	if err := inc.Observe(1, []int64{0}, true); err == nil {
		t.Fatal("short clock must error")
	}
	inc.Seal()
	if err := inc.Observe(1, []int64{0, 1}, true); err == nil {
		t.Fatal("Observe after Seal must error")
	}
}

// TestQuiescentSliceExact verifies exhaustively that the slice of the
// inflight == 0 predicate contains exactly the quiescent cuts.
func TestQuiescentSliceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	built := 0
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.6})
		o := QuiescentOracle(c)
		s, err := Compute(c, o)
		if errors.Is(err, ErrEmpty) {
			t.Fatalf("trial %d: the initial cut is always quiescent, slice cannot be empty", trial)
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		built++
		if err := s.Verify(o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if built == 0 {
		t.Fatal("no slices built")
	}
}

// disjOracle is a deliberately non-regular predicate (a disjunction is
// not meet-closed) used to pin the NotRegularError detail.
type disjOracle struct{}

func (disjOracle) Holds(c *computation.Computation, k computation.Cut) bool {
	return k[0] >= 1 || k[1] >= 1
}

func (disjOracle) Forbidden(c *computation.Computation, k computation.Cut) computation.ProcID {
	return 0
}

// TestNotRegularErrorNamesWitness checks Verify rejects a non-regular
// predicate with an error that still matches the ErrNotRegular sentinel
// and names the witnessing cut instead of being a bare sentinel.
func TestNotRegularErrorNamesWitness(t *testing.T) {
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.AddInternal(p0)
	c.AddInternal(p1)
	c.MustSeal()
	s, err := Compute(c, disjOracle{})
	if err != nil {
		t.Fatal(err)
	}
	verr := s.Verify(disjOracle{})
	if verr == nil {
		t.Fatal("Verify accepted a non-regular predicate")
	}
	if !errors.Is(verr, ErrNotRegular) {
		t.Fatalf("Verify error %v does not match ErrNotRegular", verr)
	}
	var nre *NotRegularError
	if !errors.As(verr, &nre) {
		t.Fatalf("Verify error %T is not a *NotRegularError", verr)
	}
	if nre.Detail == "" {
		t.Fatalf("NotRegularError carries no detail: %v", verr)
	}
}

// TestIncrementalSlicerInitialCut: a slicer whose initial cut satisfies
// the predicate reports Possibly, with the bottom at the initial cut,
// before any event arrives.
func TestIncrementalSlicerInitialCut(t *testing.T) {
	s := NewIncrementalSlicer(2, []bool{true, true})
	if !s.Possibly() {
		t.Fatal("initial cut satisfies the predicate, but the slicer did not report it")
	}
	if b := s.Bottom(); b[0] != 0 || b[1] != 0 {
		t.Fatalf("bottom = %v, want the initial cut", b)
	}
	if NewIncrementalSlicer(2, []bool{true, false}).Possibly() {
		t.Fatal("one false process: the initial cut does not satisfy the predicate")
	}
}
