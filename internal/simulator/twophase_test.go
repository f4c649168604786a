package simulator

import (
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

// mixedDecision reports whether some consistent cut shows a committed
// process coexisting with an aborted one.
func mixedDecision(c *computation.Computation) bool {
	ok, _ := lattice.Possibly(c, func(cc *computation.Computation, k computation.Cut) bool {
		committed, aborted := false, false
		for p := 0; p < cc.NumProcs(); p++ {
			id := cc.EventAt(computation.ProcID(p), k[p]).ID
			if cc.Var(VarCommitted, id) != 0 {
				committed = true
			}
			if cc.Var(VarAborted, id) != 0 {
				aborted = true
			}
		}
		return committed && aborted
	})
	return ok
}

func TestTwoPhaseAllYesCommits(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := New(seed, NewTwoPhaseProcs(4, false, func(int) bool { return true }))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Everyone committed at the end.
		for p := 0; p < 4; p++ {
			if c.Var(VarCommitted, c.Final(computation.ProcID(p)).ID) == 0 {
				t.Fatalf("seed %d: process %d did not commit", seed, p)
			}
		}
		// No mixed state is even possible.
		if mixedDecision(c) {
			t.Fatalf("seed %d: correct protocol shows mixed decisions", seed)
		}
		// Definitely(everyone committed): sum of committed flags
		// reaches 4 on every run.
		def, err := relsum.Definitely(relsum.Var(c, VarCommitted), relsum.Eq, 4, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !def {
			t.Fatalf("seed %d: commit point must be definite", seed)
		}
	}
}

func TestTwoPhaseOneNoAborts(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := New(seed, NewTwoPhaseProcs(4, false, func(i int) bool { return i != 2 }))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			final := c.Final(computation.ProcID(p)).ID
			if c.Var(VarCommitted, final) != 0 {
				t.Fatalf("seed %d: process %d committed despite a no vote", seed, p)
			}
			if c.Var(VarAborted, final) == 0 {
				t.Fatalf("seed %d: process %d did not abort", seed, p)
			}
		}
		if got := c.Var(VarCommitted, c.Final(0).ID); got != 0 {
			t.Fatalf("seed %d: coordinator committed", seed)
		}
	}
}

func TestTwoPhaseBuggyCoordinatorViolatesAgreement(t *testing.T) {
	// With the premature-commit bug and a mixed vote, some seed must
	// exhibit a reachable state with commit and abort coexisting.
	violated := false
	for seed := int64(0); seed < 20 && !violated; seed++ {
		sim := New(seed, NewTwoPhaseProcs(4, true, func(i int) bool { return i != 3 }))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if mixedDecision(c) {
			violated = true
		}
	}
	if !violated {
		t.Fatal("buggy coordinator never produced a detectable agreement violation")
	}
}

func TestTwoPhaseQuiescence(t *testing.T) {
	sim := New(3, NewTwoPhaseProcs(4, false, func(int) bool { return true }))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	min, max := rangeOf(relsum.InFlight(c))
	if min != 0 {
		t.Fatalf("min in-flight = %d", min)
	}
	// Prepare broadcast puts up to 3 messages in flight at once.
	if max < 1 || max > 6 {
		t.Fatalf("max in-flight = %d, expected within [1,6]", max)
	}
}
