package detect

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/linear"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
	"github.com/distributed-predicates/gpd/internal/pred"
)

func init() {
	// Equilevel predicates (Garg & Streit) restrict a conjunction to the
	// consistent cuts at one level: equilevel(x): L holds at a cut G iff
	// exactly L non-initial events have executed in G and every process
	// satisfies x at G's frontier. Every maximal run passes through
	// exactly one cut per level, which collapses both modalities to a
	// single antichain (level-set) scan — there is no incremental
	// detector, so the family is batch-only, like CNF.
	Register(Entry{
		Family: pred.Equilevel, Modality: ModalityPossibly,
		Batch: equilevelPossibly,
	})
	Register(Entry{
		Family: pred.Equilevel, Modality: ModalityDefinitely,
		Batch: equilevelDefinitely,
	})
}

// equilevelHolds evaluates the conjunction at every cut of the level
// set: workers fill disjoint chunks of the verdict slice, so the result
// is a pure function of the computation, independent of the worker
// count. All cuts are evaluated (no early exit inside the pool) — the
// short-circuit lives in the caller's ordered scan, keeping the
// equilevel.cuts_checked counter identical for every parallelism.
func equilevelHolds(c *computation.Computation, cuts []computation.Cut, name string, workers int, tr *obs.Trace) []bool {
	truth := varTruth(c, name)
	n := c.NumProcs()
	holds := make([]bool, len(cuts))
	par.Do(workers, len(cuts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			holds[i] = c.CountTrue(cuts[i], truth) == n
		}
	})
	tr.Add("equilevel.cuts_checked", int64(len(cuts)))
	return holds
}

// equilevelPossibly decides Possibly(equilevel(x): L). The conjunction
// all(x) is linear, so the least satisfying cut (linear.FindLeast)
// prunes first: if no cut satisfies the conjunction at all, or the
// least one already sits above level L, no level-L cut can satisfy it
// and the level-set sweep is skipped entirely. Otherwise the level set
// is enumerated by BFS and scanned in frontier order; the first
// satisfying cut is the witness.
func equilevelPossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	locals := make(map[computation.ProcID]func(computation.Event) bool, c.NumProcs())
	for p := 0; p < c.NumProcs(); p++ {
		locals[computation.ProcID(p)] = varTruth(c, s.Var)
	}
	least, ok := linear.FindLeast(c, linear.Conjunctive(locals))
	if !ok || int64(cutLevel(least)) > s.K {
		return Result{}, nil
	}
	cuts := lattice.LevelCutsTraced(c, int(s.K), opt.Parallelism, tr)
	holds := equilevelHolds(c, cuts, s.Var, opt.Parallelism, tr)
	for i, h := range holds {
		if h {
			return Result{Holds: true, Witness: cuts[i].Clone()}, nil
		}
	}
	return Result{}, nil
}

// equilevelDefinitely decides Definitely(equilevel(x): L): every
// maximal run passes through exactly one level-L cut, so the predicate
// is inevitable iff the level set is non-empty (some run reaches level
// L — equivalently L is at most the number of non-initial events) and
// every cut in it satisfies the conjunction.
func equilevelDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	cuts := lattice.LevelCutsTraced(c, int(s.K), opt.Parallelism, tr)
	if len(cuts) == 0 {
		return Result{}, nil
	}
	holds := equilevelHolds(c, cuts, s.Var, opt.Parallelism, tr)
	for _, h := range holds {
		if !h {
			return Result{}, nil
		}
	}
	return Result{Holds: true}, nil
}

// cutLevel is the number of non-initial events executed in the cut:
// cut components count non-initial events per process, so the level is
// their sum.
func cutLevel(k computation.Cut) int {
	lvl := 0
	for _, v := range k {
		lvl += v
	}
	return lvl
}
