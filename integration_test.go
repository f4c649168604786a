package gpd_test

// Integration tests: end-to-end pipelines across packages — simulate,
// serialize, reload, and verify that every detector family gives identical
// answers on both copies, and that detector families agree with each other
// where their predicate classes overlap.

import (
	"bytes"
	"fmt"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/linear"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// roundTrip serializes and reloads a computation.
func roundTrip(t *testing.T, c *gpd.Computation) *gpd.Computation {
	t.Helper()
	var buf bytes.Buffer
	if err := gpd.WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := gpd.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

func TestDetectorsInvariantUnderSerialization(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewTokenRingProcs(4, 2, 1, 3))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		c2 := roundTrip(t, c)
		min1, max1 := gpd.SumRange(c, gpd.VarTokens)
		min2, max2 := gpd.SumRange(c2, gpd.VarTokens)
		if min1 != min2 || max1 != max2 {
			t.Fatalf("seed %d: SumRange changed across serialization: [%d,%d] vs [%d,%d]",
				seed, min1, max1, min2, max2)
		}
		for k := int64(0); k <= 3; k++ {
			p1, err1 := relsum.Possibly(c, gpd.VarTokens, relsum.Eq, k)
			p2, err2 := relsum.Possibly(c2, gpd.VarTokens, relsum.Eq, k)
			if err1 != nil || err2 != nil || p1 != p2 {
				t.Fatalf("seed %d k=%d: relsum.Possibly mismatch (%v/%v, %v/%v)", seed, k, p1, p2, err1, err2)
			}
			d1, _ := relsum.Definitely(c, gpd.VarTokens, relsum.Eq, k)
			d2, _ := relsum.Definitely(c2, gpd.VarTokens, relsum.Eq, k)
			if d1 != d2 {
				t.Fatalf("seed %d k=%d: relsum.Definitely mismatch", seed, k)
			}
		}
	}
}

// TestFamilyAgreement: the same predicate expressed in different detector
// families must give the same answer.
func TestFamilyAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewFlawedMutexProcs(3, 2))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		inCS := func(e gpd.Event) bool { return c.Var(gpd.VarCS, e.ID) != 0 }

		// "All three in CS simultaneously": conjunctive vs singular
		// (unit clauses) vs symmetric (count == 3) vs linear vs generic.
		locals := map[gpd.ProcID]conjunctive.LocalPredicate{}
		pred := &singular.Predicate{}
		for p := 0; p < 3; p++ {
			locals[gpd.ProcID(p)] = inCS
			pred.Clauses = append(pred.Clauses, singular.Clause{{Proc: gpd.ProcID(p)}})
		}
		conj := conjunctive.Detect(c, locals).Found
		sres, err := singular.Detect(c, pred, inCS, gpd.StrategyChainCover)
		if err != nil {
			t.Fatal(err)
		}
		symm, _, err := symmetric.Possibly(c, symmetric.ExactlyK(3, 3), inCS)
		if err != nil {
			t.Fatal(err)
		}
		linOK, _ := linear.Possibly(c, linear.Conjunctive(map[gpd.ProcID]func(gpd.Event) bool{
			0: inCS, 1: inCS, 2: inCS,
		}))
		genOK, _ := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			return cc.CountTrue(k, inCS) == 3
		})
		if conj != sres.Found || conj != symm || conj != linOK || conj != genOK {
			t.Fatalf("seed %d: family disagreement: conj=%v singular=%v symmetric=%v linear=%v generic=%v",
				seed, conj, sres.Found, symm, linOK, genOK)
		}

		// "At least two in CS": symmetric vs generic vs sum.
		twoSym, _, err := symmetric.Possibly(c,
			symmetric.FromFunc(3, func(m int) bool { return m >= 2 }), inCS)
		if err != nil {
			t.Fatal(err)
		}
		twoSum, err := relsum.Possibly(c, gpd.VarCS, relsum.Ge, 2)
		if err != nil {
			t.Fatal(err)
		}
		twoGen, _ := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			return cc.CountTrue(k, inCS) >= 2
		})
		if twoSym != twoSum || twoSym != twoGen {
			t.Fatalf("seed %d: >=2 disagreement: symmetric=%v sum=%v generic=%v",
				seed, twoSym, twoSum, twoGen)
		}

		// Definitely modality: interval algorithm vs generic sweep.
		defConj := conjunctive.DetectDefinitely(c, locals)
		defGen := gpd.DefinitelyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			return cc.CountTrue(k, inCS) == 3
		})
		if defConj != defGen {
			t.Fatalf("seed %d: conjunctive.DetectDefinitely=%v, generic=%v", seed, defConj, defGen)
		}
	}
}

// TestSliceConsistentWithDetection: the slice of the conjunctive predicate
// is non-empty exactly when the conjunctive detector reports Found, and
// the detector's witness cut is in the slice.
func TestSliceConsistentWithDetection(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewGossiperProcs(3, 8, 300))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		flag := func(e gpd.Event) bool { return c.Var(gpd.VarFlag, e.ID) != 0 }
		locals := map[gpd.ProcID]conjunctive.LocalPredicate{0: flag, 1: flag, 2: flag}
		res := conjunctive.Detect(c, locals)
		o := slicing.ConjunctiveOracle(map[gpd.ProcID]func(gpd.Event) bool{0: flag, 1: flag, 2: flag})
		s, err := slicing.Compute(c, o)
		if res.Found {
			if err != nil {
				t.Fatalf("seed %d: detector found but slice failed: %v", seed, err)
			}
			if !s.Contains(o, res.Cut) {
				t.Fatalf("seed %d: witness cut %v not in slice", seed, res.Cut)
			}
		} else if err == nil {
			t.Fatalf("seed %d: detector found nothing but slice is non-empty (bottom %v)", seed, s.Bottom())
		}
	}
}

// TestCLIQuickPipeline mimics the documented tool pipeline in-process:
// generate, detect, visualize.
func TestCLIQuickPipeline(t *testing.T) {
	sim := gpd.NewSimulator(11, gpd.NewVoterProcs(5, 3, func(i int) bool { return i < 2 }))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	c2 := roundTrip(t, c)
	for _, k := range []int64{0, 1, 2, 3, 4, 5} {
		a, err1 := relsum.Possibly(c, gpd.VarYes, relsum.Eq, k)
		b, err2 := relsum.Possibly(c2, gpd.VarYes, relsum.Eq, k)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("k=%d: %v vs %v", k, a, b)
		}
	}
	// Witness rendering path (exercised via the library, the CLI tests
	// cover the command itself).
	ok, cut, err := relsum.PossiblyEqWitness(c, gpd.VarYes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		if got := c.SumVar(gpd.VarYes, cut); got != 2 {
			t.Fatalf("witness sum = %d", got)
		}
	}
	_ = fmt.Sprintf("%v", cut)
}
