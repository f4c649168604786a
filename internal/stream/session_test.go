package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// varName is the variable the tests' predicates read.
const varName = "x"

// sumEqPred is the grammar string of sum(varName) == k.
func sumEqPred(k int64) string { return fmt.Sprintf("sum(%s) == %d", varName, k) }

// levelsPred is the grammar string of the symmetric predicate on
// varName with the given true-count level set.
func levelsPred(levels []int) string {
	return pred.Spec{Family: pred.Levels, Var: varName, Levels: levels}.String()
}

// replay shuffles a trace, streams it through a fresh session with
// flushes interleaved at random (exercising causal holdback and frontier
// pruning mid-stream), and finalizes. The incremental Possibly latch is
// checked for monotonicity on the way.
func replay(t *testing.T, rng *rand.Rand, spec Spec, events []Event) (Verdict, *Session) {
	t.Helper()
	s, err := NewSession(spec)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	evs := append([]Event(nil), events...)
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	sawPossibly := false
	for _, ev := range evs {
		if err := s.Step(ev); err != nil {
			t.Fatalf("Step(%+v): %v", ev, err)
		}
		if rng.Intn(3) == 0 {
			s.Flush()
			if sawPossibly && !s.Possibly() {
				t.Fatalf("Possibly latch went true -> false mid-stream")
			}
			sawPossibly = s.Possibly()
		}
	}
	v, err := s.Finalize()
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if sawPossibly && !v.Possibly {
		t.Fatalf("Possibly latched mid-stream but final verdict is false")
	}
	if !v.DefinitelyKnown && spec.Retain {
		t.Fatalf("Retain set but Definitely not decided")
	}
	return v, s
}

func randomComputation(seed int64) *computation.Computation {
	rng := rand.New(rand.NewSource(seed * 7919))
	return gen.Random(gen.Params{
		Seed:    seed,
		Procs:   2 + rng.Intn(3),
		Events:  3 + rng.Intn(4),
		MsgFrac: 0.3 + rng.Float64(),
	})
}

// buildComputation builds a computation with lens[p] non-initial events
// on process p and the given messages, each (from proc, from index, to
// proc, to index) with 1-based local event indices.
func buildComputation(lens []int, msgs ...[4]int) *computation.Computation {
	c := computation.New()
	ids := make([][]computation.EventID, len(lens))
	for p, n := range lens {
		pid := c.AddProcess()
		for i := 0; i < n; i++ {
			ids[p] = append(ids[p], c.AddInternal(pid))
		}
	}
	for _, m := range msgs {
		if err := c.AddMessage(ids[m[0]][m[1]-1], ids[m[2]][m[3]-1]); err != nil {
			panic(err)
		}
	}
	return c.MustSeal()
}

// conjCase is one computation with its local-predicate truth table
// (index 0 is the initial state), the source of its replay order and,
// for the hand-built scenarios, the expected Possibly verdict.
type conjCase struct {
	name  string
	c     *computation.Computation
	truth [][]bool
	rng   *rand.Rand
	want  *bool
}

// conjScenarios are the hand-built online-checker scenarios: true events
// that are concurrent, ordered by a message, superseded by a later
// concurrent one (token elimination), carried by a send and its
// receive, and raised before an all-to-all gossip round.
func conjScenarios() []conjCase {
	yes, no := true, false
	const T, F = true, false
	cases := []conjCase{
		{name: "concurrent true events", c: buildComputation([]int{1, 1}),
			truth: [][]bool{{F, T}, {F, T}}, want: &yes},
		{name: "ordered true events", c: buildComputation([]int{2, 2}, [4]int{0, 2, 1, 1}),
			truth: [][]bool{{F, T, F}, {F, F, T}}, want: &no},
		{name: "true after elimination", c: buildComputation([]int{3, 2}, [4]int{0, 2, 1, 1}),
			truth: [][]bool{{F, T, F, T}, {F, F, T}}, want: &yes},
		{name: "true send and receive", c: buildComputation([]int{1, 1}, [4]int{0, 1, 1, 1}),
			truth: [][]bool{{F, T}, {F, T}}, want: &yes},
		{name: "gossip after true events", c: buildComputation([]int{4, 4, 4},
			[4]int{0, 3, 1, 4}, [4]int{1, 3, 2, 4}, [4]int{2, 3, 0, 4}),
			truth: [][]bool{{F, F, T, T, T}, {F, F, T, T, T}, {F, F, T, T, T}}, want: &yes},
	}
	for i := range cases {
		cases[i].rng = rand.New(rand.NewSource(int64(-1 - i)))
	}
	return cases
}

// TestSessionConjunctiveAgreesWithOffline replays the hand-built
// scenarios and random computations with random local-predicate tables
// and checks both modalities against the offline detectors
// (weak-conjunctive token elimination and the interval overlap graph).
func TestSessionConjunctiveAgreesWithOffline(t *testing.T) {
	cases := conjScenarios()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		truth := gen.BoolTables(seed, c, 0.25+rng.Float64()*0.5)
		cases = append(cases, conjCase{name: fmt.Sprintf("seed %d", seed), c: c, truth: truth, rng: rng})
	}
	for _, tc := range cases {
		c, truth := tc.c, tc.truth
		offPos := conjunctive.DetectTables(c, truth).Found
		if tc.want != nil && offPos != *tc.want {
			t.Fatalf("%s: offline Possibly=%v, want %v", tc.name, offPos, *tc.want)
		}
		locals := make(map[computation.ProcID]conjunctive.LocalPredicate)
		for p := range truth {
			row := truth[p]
			locals[computation.ProcID(p)] = func(e computation.Event) bool {
				return e.Index < len(row) && row[e.Index]
			}
		}
		offDef := conjunctive.DetectDefinitely(c, locals, nil)

		events, init := TableTrace(c, truth)
		spec := Spec{Pred: "all(x)", Procs: c.NumProcs(), Init: init, Retain: true}
		v, _ := replay(t, tc.rng, spec, events)
		if v.Possibly != offPos {
			t.Errorf("%s: Possibly: stream=%v offline=%v", tc.name, v.Possibly, offPos)
		}
		if v.Definitely != offDef {
			t.Errorf("%s: Definitely: stream=%v offline=%v", tc.name, v.Definitely, offDef)
		}
	}
}

// TestSessionSumEqAgreesWithOffline replays unit-step variables and checks
// Possibly/Definitely(sum = K) against the offline relsum engine for K
// around and outside the reachable range.
func TestSessionSumEqAgreesWithOffline(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		gen.UnitStepVar(seed, c, varName)
		events, init := SumTrace(c, varName)
		lo, hi := rangeOf(relsum.Var(c, varName))
		for _, k := range []int64{lo - 1, lo, (lo + hi) / 2, hi, hi + 1} {
			offPos, _, _, err := relsum.Possibly(relsum.Var(c, varName), relsum.Eq, k, 1, nil)
			if err != nil {
				t.Fatalf("seed %d: offline Possibly: %v", seed, err)
			}
			offDef, err := relsum.Definitely(relsum.Var(c, varName), relsum.Eq, k, 1, nil)
			if err != nil {
				t.Fatalf("seed %d: offline Definitely: %v", seed, err)
			}
			spec := Spec{Pred: sumEqPred(k), Procs: c.NumProcs(), Init: init, Retain: true}
			v, _ := replay(t, rng, spec, events)
			if v.Possibly != offPos {
				t.Errorf("seed %d K=%d: Possibly: stream=%v offline=%v", seed, k, v.Possibly, offPos)
			}
			if v.Definitely != offDef {
				t.Errorf("seed %d K=%d: Definitely: stream=%v offline=%v", seed, k, v.Definitely, offDef)
			}
		}
	}
}

// TestSessionSymmetricAgreesWithOffline replays boolean variables under
// several symmetric specs and checks both modalities against the offline
// level-set detector.
func TestSessionSymmetricAgreesWithOffline(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		gen.BoolVar(seed, c, varName, 0.35)
		events, init := BoolTrace(c, varName)
		truth := func(e computation.Event) bool { return c.Var(varName, e.ID) != 0 }
		n := c.NumProcs()
		specs := []symmetric.Spec{
			symmetric.Xor(n),
			symmetric.NoSimpleMajority(n),
			symmetric.ExactlyK(n, n/2),
			symmetric.NotAllEqual(n),
		}
		for _, sp := range specs {
			if len(sp.Levels) == 0 {
				continue // unsatisfiable (e.g. NoSimpleMajority with odd n)
			}
			offPos, _, _, err := symmetric.Possibly(c, sp, truth, 1, nil)
			if err != nil {
				t.Fatalf("seed %d %v: offline Possibly: %v", seed, sp, err)
			}
			offDef, err := symmetric.Definitely(c, sp, truth, 1, nil)
			if err != nil {
				t.Fatalf("seed %d %v: offline Definitely: %v", seed, sp, err)
			}
			spec := Spec{Pred: levelsPred(sp.Levels), Procs: n, Init: init, Retain: true}
			v, _ := replay(t, rng, spec, events)
			if v.Possibly != offPos {
				t.Errorf("seed %d %v: Possibly: stream=%v offline=%v", seed, sp, v.Possibly, offPos)
			}
			if v.Definitely != offDef {
				t.Errorf("seed %d %v: Definitely: stream=%v offline=%v", seed, sp, v.Definitely, offDef)
			}
		}
	}
}

// TestSessionPruningBoundsWindow checks that in-order streaming keeps the
// detector window bounded by the frontier, not the stream length.
func TestSessionPruningBoundsWindow(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 42, Procs: 3, Events: 40, MsgFrac: 1.5})
	gen.UnitStepVar(42, c, varName)
	events, init := SumTrace(c, varName)
	s, err := NewSession(Spec{Pred: sumEqPred(1), Procs: 3, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	maxWindow := 0
	for _, ev := range events { // topological order: deliverable immediately
		if err := s.Step(ev); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		if w := s.Window(); w > maxWindow {
			maxWindow = w
		}
	}
	if total := len(events); maxWindow >= total {
		t.Fatalf("window high-water %d never dipped below stream length %d (no pruning)", maxWindow, total)
	}
}

// TestSessionRejects checks structural failure modes: bad timestamps,
// duplicate delivery, gaps at close, and the MaxWindow bound.
func TestSessionRejects(t *testing.T) {
	spec := Spec{Pred: "all(x)", Procs: 2}
	t.Run("bad proc", func(t *testing.T) {
		s, _ := NewSession(spec)
		if err := s.Step(Event{Proc: 5, VC: []int64{1, 0}}); err == nil {
			t.Fatal("want error for out-of-range proc")
		}
	})
	t.Run("bad vc length", func(t *testing.T) {
		s, _ := NewSession(spec)
		if err := s.Step(Event{Proc: 0, VC: []int64{1}}); err == nil {
			t.Fatal("want error for short VC")
		}
	})
	t.Run("duplicate is idempotent", func(t *testing.T) {
		s, _ := NewSession(spec)
		ev := Event{Proc: 0, VC: []int64{1, 0}}
		if err := s.Step(ev); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(ev); err != nil {
			t.Fatalf("client retry of a delivered event must be a no-op, got %v", err)
		}
		if got := s.Delivered(); got != 1 {
			t.Fatalf("Delivered = %d after retry, want 1", got)
		}
	})
	t.Run("gap at close", func(t *testing.T) {
		s, _ := NewSession(spec)
		if err := s.Step(Event{Proc: 0, VC: []int64{2, 0}}); err != nil {
			t.Fatal(err) // held back: event 1 of proc 0 is missing
		}
		if _, err := s.Finalize(); err == nil {
			t.Fatal("want error for undeliverable holdback at close")
		}
	})
	t.Run("max window", func(t *testing.T) {
		s, _ := NewSession(Spec{Pred: "all(x)", Procs: 2, MaxWindow: 2})
		var err error
		for i := int64(2); i < 10 && err == nil; i++ {
			err = s.Step(Event{Proc: 0, VC: []int64{i, 0}}) // all held back
		}
		if err == nil {
			t.Fatal("want error once holdback exceeds MaxWindow")
		}
	})
	// A silent process stops frontier pruning, so the detector window
	// grows while another process streams in order; past MaxWindow the
	// session fails naming the window (read as of the last flush),
	// whether the predicate came with the open or with a register frame.
	for _, tc := range []struct {
		name string
		open Spec
		reg  string
	}{
		{"detector window of the open predicate", Spec{Pred: "sum(x) >= 100", Procs: 2, MaxWindow: 4}, ""},
		{"detector window of a registered predicate", Spec{Mux: true, Procs: 2, MaxWindow: 4}, "sum(x) >= 100"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(tc.open)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reg != "" {
				ps, err := pred.Parse(tc.reg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Register(mux.Registration{ID: "r", Spec: ps}); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(1); i <= 16 && err == nil; i++ {
				err = s.Step(Event{Proc: 0, VC: []int64{i, 0}, Var: "x", Val: i % 2})
				s.Flush()
			}
			if err == nil || !strings.Contains(err.Error(), "detector window") {
				t.Fatalf("error %v, want the detector-window bound (holdback %d, window %d)", err, s.Holdback(), s.Window())
			}
		})
	}
}
