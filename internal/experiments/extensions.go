package experiments

import (
	"errors"
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// X1Slicing measures the extension module: computation slices for regular
// (conjunctive) predicates compress the search space from the full cut
// lattice to exactly the satisfying cuts, and are built in polynomial
// time. Each row compares the lattice size with the slice size and the
// respective construction/enumeration times.
func X1Slicing() *Table {
	t := &Table{
		ID:      "X1",
		Title:   "Extension: computation slicing for conjunctive predicates",
		Columns: []string{"procs", "events/proc", "lattice cuts", "slice cuts", "compression", "slice build+enum"},
	}
	for _, cfg := range []struct{ procs, events int }{
		{2, 10}, {3, 8}, {4, 6}, {5, 5},
	} {
		c := gen.Random(gen.Params{Seed: int64(1000 + cfg.procs), Procs: cfg.procs, Events: cfg.events, MsgFrac: 0.4})
		tabs := gen.BoolTables(int64(1100+cfg.procs), c, 0.7)
		locals := make(map[computation.ProcID]func(computation.Event) bool)
		for p, row := range tabs {
			row := row
			locals[computation.ProcID(p)] = func(e computation.Event) bool {
				return e.Index < len(row) && row[e.Index]
			}
		}
		o := slicing.ConjunctiveOracle(locals)
		full := lattice.Count(c)
		var sliceCuts int64
		d := timed(func() {
			s, err := slicing.Compute(c, o)
			if errors.Is(err, slicing.ErrEmpty) {
				sliceCuts = 0
				return
			}
			if err != nil {
				sliceCuts = -1
				return
			}
			sliceCuts = s.Count(o).Int64()
		})
		comp := "-"
		if sliceCuts > 0 {
			comp = fmt.Sprintf("%.1fx", float64(full)/float64(sliceCuts))
		}
		t.AddRow(cfg.procs, cfg.events, full, sliceCuts, comp, d)
	}
	t.Notes = append(t.Notes,
		"the slice holds exactly the predicate's satisfying cuts; later analyses enumerate it instead of the lattice")
	return t
}

// X2Channels measures channel predicates — relational predicates over
// message occupancy, decided by the same max-weight-closure engine
// (extension of the Section 4 machinery to ideal sums). Each row reports
// the exact in-flight bounds of a protocol trace and the time to compute
// them.
func X2Channels() *Table {
	t := &Table{
		ID:      "X2",
		Title:   "Extension: channel-occupancy predicates via the closure engine",
		Columns: []string{"workload", "procs", "events", "msgs", "in-flight range", "time"},
	}
	type workload struct {
		name string
		run  func() (*computation.Computation, error)
	}
	for _, w := range []workload{
		{"token ring (2 tokens)", func() (*computation.Computation, error) {
			return simRun(31, simulatorTokenRing(8, 2, 1, 4))
		}},
		{"two-phase commit", func() (*computation.Computation, error) {
			return simRun(32, simulatorTwoPhase(8))
		}},
		{"leader election", func() (*computation.Computation, error) {
			return simRun(33, simulatorElection(8))
		}},
		{"gossip (dense)", func() (*computation.Computation, error) {
			return simRun(34, simulatorGossip(16, 40))
		}},
	} {
		c, err := w.run()
		if err != nil {
			t.AddRow(w.name, "-", "-", "-", "-", "ERROR: "+err.Error())
			continue
		}
		var b relsum.Bounds
		d := timed(func() { b = relsum.Range(relsum.InFlight(c), 1, nil) })
		t.AddRow(w.name, c.NumProcs(), c.NumEvents(), len(c.Messages()),
			fmt.Sprintf("[%d,%d]", b.Min, b.Max), d)
	}
	t.Notes = append(t.Notes,
		"max is the buffer capacity the system actually needs; min = 0 is reachable quiescence")
	return t
}

// X3Definitely measures the Definitely-conjunctive interval algorithm
// (Garg & Waldecker's strong-predicate technique) against the generic
// level-sweep of the lattice: the interval algorithm stays polynomial
// while the sweep explodes with the process count, and they agree
// wherever both run.
func X3Definitely() *Table {
	t := &Table{
		ID:      "X3",
		Title:   "Extension: Definitely(conjunction) — interval algorithm vs lattice sweep",
		Columns: []string{"procs", "events/proc", "intervals", "interval alg", "lattice sweep", "agree"},
	}
	for _, cfg := range []struct {
		procs, events int
		baseline      bool
	}{
		{3, 8, true}, {4, 8, true}, {6, 6, true},
		{16, 100, false}, {64, 400, false},
	} {
		c := gen.Random(gen.Params{Seed: int64(1200 + cfg.procs), Procs: cfg.procs, Events: cfg.events, MsgFrac: 0.4})
		gen.BoolVar(int64(1300+cfg.procs), c, "b", 0.4)
		locals := make(map[computation.ProcID]conjunctive.LocalPredicate, cfg.procs)
		for p := 0; p < cfg.procs; p++ {
			locals[computation.ProcID(p)] = func(e computation.Event) bool {
				return c.Var("b", e.ID) != 0
			}
		}
		nIntervals := 0
		for p := 0; p < cfg.procs; p++ {
			prev := false
			for _, id := range c.ProcEvents(computation.ProcID(p)) {
				v := c.Var("b", id) != 0
				if v && !prev {
					nIntervals++
				}
				prev = v
			}
		}
		var fast bool
		dFast := timed(func() { fast = conjunctive.DetectDefinitely(c, locals, nil) })
		if cfg.baseline {
			var slow bool
			dSlow := timed(func() {
				slow = lattice.Definitely(c, func(cc *computation.Computation, k computation.Cut) bool {
					for p := 0; p < cc.NumProcs(); p++ {
						if cc.Var("b", cc.EventAt(computation.ProcID(p), k[p]).ID) == 0 {
							return false
						}
					}
					return true
				})
			})
			t.AddRow(cfg.procs, cfg.events, nIntervals, dFast, dSlow, fmt.Sprint(fast == slow))
		} else {
			t.AddRow(cfg.procs, cfg.events, nIntervals, dFast, "-", "-")
		}
	}
	t.Notes = append(t.Notes,
		"the interval selection needs one lo->end causality check per pair; the sweep enumerates level sets of the lattice")
	return t
}
