package conjunctive

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

func latticeDefinitely(c *computation.Computation, truth [][]bool) bool {
	return lattice.Definitely(c, func(_ *computation.Computation, k computation.Cut) bool {
		for p := range truth {
			if truth[p] != nil && !truth[p][k[p]] {
				return false
			}
		}
		return true
	})
}

// TestDetectDefinitelyMatchesOracle is the load-bearing test: the interval
// algorithm must agree with exhaustive run analysis on thousands of
// random instances.
func TestDetectDefinitelyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(467))
	for trial := 0; trial < 600; trial++ {
		c := randomComputation(rng, 2+rng.Intn(3), 5)
		truth := randomTruth(rng, c, 0.3+rng.Float64()*0.5)
		locals := make(map[computation.ProcID]LocalPredicate)
		for p := range truth {
			row := truth[p]
			locals[computation.ProcID(p)] = func(e computation.Event) bool {
				return e.Index < len(row) && row[e.Index]
			}
		}
		got := DetectDefinitely(c, locals, nil)
		want := latticeDefinitely(c, truth)
		if got != want {
			t.Fatalf("trial %d: DetectDefinitely = %v, oracle = %v (procs=%d)",
				trial, got, want, c.NumProcs())
		}
	}
}

func TestDetectDefinitelyTrivial(t *testing.T) {
	c := computation.New()
	c.AddProcess()
	c.MustSeal()
	if !DetectDefinitely(c, nil, nil) {
		t.Fatal("empty conjunction is trivially definite")
	}
}

func TestDetectDefinitelyInitialStates(t *testing.T) {
	// All initial states true: every run starts in a satisfying state.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.AddInternal(p0)
	c.AddInternal(p1)
	c.MustSeal()
	ok := DetectDefinitely(c, map[computation.ProcID]LocalPredicate{
		p0: func(e computation.Event) bool { return e.IsInitial() },
		p1: func(e computation.Event) bool { return e.IsInitial() },
	}, nil)
	if !ok {
		t.Fatal("initial conjunction must be definite")
	}
}

func TestDetectDefinitelyOrderedFlips(t *testing.T) {
	// p0 true only at a; p1 true only at b; a -> b via message means some
	// runs see them overlap but... with a message from a's successor to
	// b, p0's interval [a, a2) ends before b begins: no run overlaps.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a2, b); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	ok := DetectDefinitely(c, map[computation.ProcID]LocalPredicate{
		p0: func(e computation.Event) bool { return e.ID == a },
		p1: func(e computation.Event) bool { return e.ID == b },
	}, nil)
	if ok {
		t.Fatal("intervals cannot overlap in any run")
	}
	// Whereas with a message directly from a to b (interval [a, a2)
	// still open when b happens? No: a2 may still be scheduled before
	// b... but not in every run), Definitely needs lo/end causality:
	// here lo0=a -> end1 (none, open) and lo1=b -> end0=a2 must hold;
	// b -> a2 is false, so still not definite — but Possibly holds.
	c2 := computation.New()
	q0 := c2.AddProcess()
	q1 := c2.AddProcess()
	x := c2.AddInternal(q0)
	x2 := c2.AddInternal(q0)
	y := c2.AddInternal(q1)
	if err := c2.AddMessage(x, y); err != nil {
		t.Fatal(err)
	}
	c2.MustSeal()
	locals := map[computation.ProcID]LocalPredicate{
		q0: func(e computation.Event) bool { return e.ID == x },
		q1: func(e computation.Event) bool { return e.ID == y },
	}
	if DetectDefinitely(c2, locals, nil) {
		t.Fatal("a run may schedule x2 before y: not definite")
	}
	if !Detect(c2, locals, nil).Found {
		t.Fatal("but the overlap is possible")
	}
	_ = x2
}

func TestDetectDefinitelyOpenIntervals(t *testing.T) {
	// Both predicates become true and stay true: definitely holds (the
	// final state satisfies in every run).
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	c.MustSeal()
	ok := DetectDefinitely(c, map[computation.ProcID]LocalPredicate{
		p0: func(e computation.Event) bool { return e.ID == a },
		p1: func(e computation.Event) bool { return e.ID == b },
	}, nil)
	if !ok {
		t.Fatal("stable conjunction must be definite")
	}
}

func TestDetectDefinitelyNoTrueStates(t *testing.T) {
	c := computation.New()
	p := c.AddProcess()
	c.AddInternal(p)
	c.MustSeal()
	if DetectDefinitely(c, map[computation.ProcID]LocalPredicate{
		p: func(computation.Event) bool { return false },
	}, nil) {
		t.Fatal("no true states: cannot be definite")
	}
}
