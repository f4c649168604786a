package gpd_test

// Scale tests: the polynomial detectors must remain correct and fast on
// traces far beyond oracle reach. These use invariant checks (conservation
// laws, protocol guarantees) instead of exhaustive oracles.

import (
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
)

func TestStressTokenRingLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		procs  = 64
		tokens = 8
	)
	sim := gpd.NewSimulator(99, gpd.NewTokenRingProcs(procs, tokens, 2, 10))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() < 1000 {
		t.Fatalf("expected a big trace, got %d events", c.NumEvents())
	}
	min, max := gpd.SumRange(c, gpd.VarTokens)
	if max != tokens {
		t.Errorf("max held tokens = %d, want %d", max, tokens)
	}
	if min < 0 || min > int64(tokens) {
		t.Errorf("min held tokens = %d out of range", min)
	}
	fmin, fmax := gpd.InFlightRange(c)
	if fmin != 0 {
		t.Errorf("in-flight min = %d", fmin)
	}
	if fmax > int64(tokens) {
		t.Errorf("in-flight max = %d exceeds token count %d", fmax, tokens)
	}
	// Conservation: held + in-flight == tokens at every cut. Check via
	// the combined weight function: it must be constant.
	inflight := func(e gpd.Event) int64 { return 0 }
	_ = inflight
	held := func(e gpd.Event) int64 {
		if e.IsInitial() {
			return 0
		}
		return c.Var(gpd.VarTokens, e.ID) - c.Var(gpd.VarTokens, c.Prev(e.ID))
	}
	flight := flightWeight(c)
	combined := func(e gpd.Event) int64 { return held(e) + flight(e) }
	cmin, cmax := gpd.WeightedRange(c, int64(tokens), combined)
	if cmin != int64(tokens) || cmax != int64(tokens) {
		t.Errorf("held+in-flight range [%d,%d], want constant %d", cmin, cmax, tokens)
	}
}

// flightWeight reproduces the in-flight weight for the combined check.
func flightWeight(c *gpd.Computation) gpd.EventWeight {
	delta := make([]int64, c.NumEvents())
	for _, m := range c.Messages() {
		delta[int(m.Send)]++
		delta[int(m.Receive)]--
	}
	return func(e gpd.Event) int64 { return delta[int(e.ID)] }
}

func TestStressRandomDetectors(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := gen.Random(gen.Params{Seed: 7, Procs: 128, Events: 400, MsgFrac: 0.3})
	gen.UnitStepVar(8, c, "x")
	gen.BoolVar(9, c, "b", 0.2)
	if c.NumEvents() < 50000 {
		t.Fatalf("trace too small: %d events", c.NumEvents())
	}
	min, max := gpd.SumRange(c, "x")
	if min > max {
		t.Fatalf("range inverted [%d,%d]", min, max)
	}
	// Every k in [min,max] is witnessed (Theorem 4 at scale), sampled at
	// the edges and middle.
	for _, k := range []int64{min, (min + max) / 2, max} {
		ok, cut, _, err := relsum.Possibly(relsum.Var(c, "x"), relsum.Eq, k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("k=%d in range not witnessed", k)
		}
		if got := c.SumVar("x", cut); got != k {
			t.Fatalf("witness sum = %d, want %d", got, k)
		}
	}
	// Symmetric predicate at scale.
	ok, _, _, err := symmetric.Possibly(c, symmetric.NoSimpleMajority(128),
		func(e gpd.Event) bool { return c.Var("b", e.ID) != 0 }, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = ok // value workload-dependent; the point is completion in poly time
	// Conjunctive detector on all 128 processes.
	locals := map[gpd.ProcID]conjunctive.LocalPredicate{}
	for p := 0; p < 128; p++ {
		locals[gpd.ProcID(p)] = func(e gpd.Event) bool { return c.Var("b", e.ID) != 0 }
	}
	_ = conjunctive.Detect(c, locals, nil)
}

func TestStressSingularOrderedLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const groupSize = 2
	c := gen.GroupFunnel(gen.Params{Seed: 11, Procs: 32, Events: 200, MsgFrac: 0.3}, groupSize, true)
	pred := &singular.Predicate{}
	for g := 0; g < 16; g++ {
		pred.Clauses = append(pred.Clauses, singular.Clause{
			{Proc: gpd.ProcID(2 * g)},
			{Proc: gpd.ProcID(2*g + 1)},
		})
	}
	truth := singular.TruthFromTables(gen.BoolTables(12, c, 0.1))
	res, err := singular.Detect(c, pred, truth, gpd.StrategyReceiveOrdered, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		if !c.CutConsistent(res.Cut) {
			t.Fatal("witness cut inconsistent")
		}
	}
}
