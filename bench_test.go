// Benchmarks, one per reproduced table/figure of EXPERIMENTS.md. Run with
//
//	go test -bench=. -benchmem
//
// The cmd/gpdbench harness prints the corresponding human-readable tables;
// these testing.B benchmarks pin the kernels so regressions show up in CI.
package gpd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/reduction"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/experiments"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/sat"
	"github.com/distributed-predicates/gpd/internal/slicing"
	"github.com/distributed-predicates/gpd/internal/subsetsum"
)

// BenchmarkFig2Relations pins the event-relation queries of Figure 2:
// consistency, independence and precedence on the example computation.
func BenchmarkFig2Relations(b *testing.B) {
	c, ev := experiments.Fig2Computation()
	pairs := [][2]computation.EventID{
		{ev["e"], ev["f"]}, {ev["e"], ev["g"]}, {ev["g"], ev["h"]},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			_ = c.ConsistentEvents(p[0], p[1])
			_ = c.Independent(p[0], p[1])
			_ = c.Precedes(p[0], p[1])
		}
	}
}

// BenchmarkFig3Reduction pins the Figure 3 construction: formula ->
// computation -> detection -> assignment.
func BenchmarkFig3Reduction(b *testing.B) {
	f := &cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{1, 2}, {-1, 3}, {2, -3, 1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := reduction.SingularFromCNF(f)
		if err != nil {
			b.Fatal(err)
		}
		res, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Found {
			if _, err := in.Assignment(res.Witness); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE1ReductionDetect measures singular detection on Theorem 1
// instances of growing size (table E1).
func BenchmarkE1ReductionDetect(b *testing.B) {
	for _, nv := range []int{3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(int64(nv)))
		f0 := experiments.RandomFormula(rng, nv)
		f, err := cnf.ToNonMonotone(f0)
		if err != nil {
			b.Fatal(err)
		}
		in, err := reduction.SingularFromCNF(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars-%d", nv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1DPLL is the SAT-solver side of table E1.
func BenchmarkE1DPLL(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f0 := experiments.RandomFormula(rng, 6)
	f, err := cnf.ToNonMonotone(f0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat.Satisfiable(f)
	}
}

// BenchmarkE2Ordered measures the polynomial receive-/send-ordered
// detectors (table E2).
func BenchmarkE2Ordered(b *testing.B) {
	const k = 2
	for _, cfg := range []struct{ g, events int }{{4, 16}, {4, 64}, {8, 64}} {
		procs := cfg.g * k
		p := groupedPred(cfg.g, k)
		cr := gen.GroupFunnel(gen.Params{Seed: 77, Procs: procs, Events: cfg.events, MsgFrac: 0.5}, k, true)
		truth := singular.TruthFromTables(gen.BoolTables(78, cr, 0.15))
		b.Run(fmt.Sprintf("recv-g%d-e%d", cfg.g, cfg.events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := singular.Detect(cr, p, truth, singular.ReceiveOrdered, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		cs := gen.GroupFunnel(gen.Params{Seed: 79, Procs: procs, Events: cfg.events, MsgFrac: 0.5}, k, false)
		truthS := singular.TruthFromTables(gen.BoolTables(80, cs, 0.15))
		b.Run(fmt.Sprintf("send-g%d-e%d", cfg.g, cfg.events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := singular.Detect(cs, p, truthS, singular.SendOrdered, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func groupedPred(groups, size int) *singular.Predicate {
	p := &singular.Predicate{}
	proc := 0
	for g := 0; g < groups; g++ {
		var cl singular.Clause
		for j := 0; j < size; j++ {
			cl = append(cl, singular.Literal{Proc: computation.ProcID(proc)})
			proc++
		}
		p.Clauses = append(p.Clauses, cl)
	}
	return p
}

// BenchmarkE3AlgorithmA and BenchmarkE3AlgorithmB contrast the Section 3.3
// general algorithms (table E3): A enumerates processes (k^g), B enumerates
// chains (c^g).
func BenchmarkE3AlgorithmA(b *testing.B) {
	c, p, truth := e3Fixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := singular.Detect(c, p, truth, singular.ProcessSubsets, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3AlgorithmB(b *testing.B) {
	c, p, truth := e3Fixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := singular.Detect(c, p, truth, singular.ChainCover, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func e3Fixture() (*computation.Computation, *singular.Predicate, singular.Truth) {
	c := experiments.ChainyGroups(333, 4, 3, 20)
	p := groupedPred(4, 3)
	truth := singular.TruthFromTables(gen.BoolTables(21, c, 0.10))
	return c, p, truth
}

// BenchmarkE4Closure and BenchmarkE4Lattice contrast the polynomial sum
// detector with exhaustive lattice enumeration (table E4).
func BenchmarkE4Closure(b *testing.B) {
	for _, procs := range []int{8, 32, 64} {
		c := gen.Random(gen.Params{Seed: int64(procs), Procs: procs, Events: 100, MsgFrac: 0.5})
		gen.UnitStepVar(int64(procs+1), c, "x")
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := relsum.Possibly(relsum.Var(c, "x"), relsum.Eq, 1, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4Lattice(b *testing.B) {
	for _, procs := range []int{2, 4, 6} {
		c := gen.Random(gen.Params{Seed: int64(procs), Procs: procs, Events: 8, MsgFrac: 0.5})
		gen.UnitStepVar(int64(procs+1), c, "x")
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lattice.Possibly(c, func(cc *computation.Computation, k computation.Cut) bool {
					return cc.SumVar("x", k) == 1
				})
			}
		})
	}
}

// BenchmarkE5 contrasts the pseudo-polynomial subset-sum DP against
// exhaustive detection on the Theorem 3 reduction (table E5).
func BenchmarkE5DP(b *testing.B) {
	inst := e5Instance(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subsetsum.Solve(inst)
	}
}

func BenchmarkE5Exhaustive(b *testing.B) {
	inst := e5Instance(12)
	c := reduction.RelsumFromSubsetSum(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lattice.Possibly(c, func(cc *computation.Computation, k computation.Cut) bool {
			return cc.SumVar(reduction.SumVar, k) == inst.Target
		})
	}
}

func e5Instance(n int) subsetsum.Instance {
	rng := rand.New(rand.NewSource(55))
	sizes := make([]int64, n)
	var sum int64
	for i := range sizes {
		sizes[i] = int64(1 + rng.Intn(30))
		sum += sizes[i]
	}
	return subsetsum.Instance{Sizes: sizes, Target: sum / 3}
}

// BenchmarkE6Symmetric measures symmetric predicate detection on voting
// traces (table E6).
func BenchmarkE6Symmetric(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		c, err := experiments.RunVoting(int64(n), n)
		if err != nil {
			b.Fatal(err)
		}
		truth := func(e computation.Event) bool { return c.Var("yes", e.ID) != 0 }
		b.Run(fmt.Sprintf("procs-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := symmetric.Possibly(c, symmetric.NoSimpleMajority(n), truth, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX1Slicing measures slice construction plus full enumeration
// for conjunctive predicates (table X1).
func BenchmarkX1Slicing(b *testing.B) {
	c := gen.Random(gen.Params{Seed: 1004, Procs: 4, Events: 6, MsgFrac: 0.4})
	tabs := gen.BoolTables(1104, c, 0.7)
	locals := make(map[computation.ProcID]func(computation.Event) bool)
	for p, row := range tabs {
		row := row
		locals[computation.ProcID(p)] = func(e computation.Event) bool {
			return e.Index < len(row) && row[e.Index]
		}
	}
	o := slicing.ConjunctiveOracle(locals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := slicing.Compute(c, o)
		if err != nil {
			b.Fatal(err)
		}
		s.Count(o)
	}
}

// BenchmarkX2InFlight measures channel-occupancy bounds on protocol
// traces (table X2).
func BenchmarkX2InFlight(b *testing.B) {
	for _, n := range []int{8, 32} {
		c, err := experiments.RunVoting(int64(n), n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("procs-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relsum.Range(relsum.InFlight(c), 1, nil)
			}
		})
	}
}

// BenchmarkE7Conjunctive measures the Garg–Waldecker baseline (table E7).
func BenchmarkE7Conjunctive(b *testing.B) {
	for _, procs := range []int{8, 32, 64} {
		c := gen.Random(gen.Params{Seed: int64(procs), Procs: procs, Events: 200, MsgFrac: 0.4})
		tabs := gen.BoolTables(int64(procs+7), c, 0.25)
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conjunctive.DetectTables(c, tabs)
			}
		})
	}
}
