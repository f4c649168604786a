package lattice

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
)

// The parallel kernels below all follow the same determinism-preserving
// shape: each breadth-first level (an antichain frontier of the cut
// lattice) is split into contiguous chunks handed to a bounded worker
// pool (par.Do), and the workers do only the embarrassingly parallel
// part — evaluate the predicate, enumerate successor cuts, precompute
// their dedup keys. A single sequential merge then walks the frontier
// in index order, applying the seen-map, bumping the work counters and
// taking every early-exit decision exactly where the sequential code
// would. Verdicts and counters are therefore bit-identical
// for every worker count; parallelism 1 short-circuits to the original
// sequential functions.

// succ is a successor cut precomputed by a worker, with its dedup key
// so the merge loop does only map work.
type succ struct {
	cut computation.Cut
	key string
}

// DefinitelyPar is DefinitelyTraced with each level's successor
// generation and predicate evaluation spread over a bounded worker
// pool. workers <= 1 runs the exact sequential kernel; any worker count
// returns the same verdict and counters.
func DefinitelyPar(c *computation.Computation, pred Predicate, workers int, tr *obs.Trace) bool {
	if workers <= 1 {
		return DefinitelyTraced(c, pred, tr)
	}
	var cuts, levels, width int64
	defer func() {
		tr.Add("lattice.cuts_explored", cuts)
		tr.Add("lattice.levels_swept", levels)
		tr.Max("lattice.max_frontier_width", width)
	}()
	start := c.InitialCut()
	cuts++
	if pred(c, start) {
		return true
	}
	type dsucc struct {
		cut   computation.Cut
		key   string
		holds bool
	}
	type visit struct {
		isFinal bool
		succs   []dsucc
	}
	level := []computation.Cut{start}
	final := c.FinalCut()
	for len(level) > 0 {
		levels++
		if int64(len(level)) > width {
			width = int64(len(level))
		}
		out := make([]visit, len(level))
		par.Do(workers, len(level), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k := level[i]
				if k.Equal(final) {
					out[i].isFinal = true
					continue
				}
				for _, id := range c.Enabled(k) {
					nk := c.Execute(k, c.Event(id).Proc)
					out[i].succs = append(out[i].succs, dsucc{nk, nk.Key(), pred(c, nk)})
				}
			}
		})
		seen := make(map[string]bool)
		var next []computation.Cut
		for i := range level {
			if out[i].isFinal {
				// A complete run avoided the predicate.
				return false
			}
			for _, s := range out[i].succs {
				cuts++
				if s.holds {
					continue // this path is intercepted
				}
				if !seen[s.key] {
					seen[s.key] = true
					next = append(next, s.cut)
				}
			}
		}
		level = next
	}
	return true
}

// PathExistsPar is PathExistsTraced with the breadth-first region sweep
// spread over a bounded worker pool. The sequential FIFO order equals
// level order, so the level-synchronous merge visits (and counts) cuts
// in exactly the sequential sequence. workers <= 1 runs the exact
// sequential kernel.
func PathExistsPar(c *computation.Computation, from, to computation.Cut, allowed Predicate, workers int, tr *obs.Trace) bool {
	if workers <= 1 {
		return PathExistsTraced(c, from, to, allowed, tr)
	}
	var cuts int64
	defer func() {
		tr.Add("lattice.region_cuts_explored", cuts)
	}()
	if !from.Leq(to) {
		return false
	}
	if allowed != nil && (!allowed(c, from) || !allowed(c, to)) {
		return false
	}
	if from.Equal(to) {
		return true
	}
	type rsucc struct {
		cut  computation.Cut
		key  string
		ok   bool
		isTo bool
	}
	seen := map[string]bool{from.Key(): true}
	queue := []computation.Cut{from}
	for len(queue) > 0 {
		out := make([][]rsucc, len(queue))
		par.Do(workers, len(queue), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k := queue[i]
				for _, id := range c.Enabled(k) {
					nk := c.Execute(k, c.Event(id).Proc)
					if !nk.Leq(to) {
						continue
					}
					s := rsucc{cut: nk, ok: allowed == nil || allowed(c, nk)}
					if s.ok {
						s.isTo = nk.Equal(to)
						if !s.isTo {
							s.key = nk.Key()
						}
					}
					out[i] = append(out[i], s)
				}
			}
		})
		var next []computation.Cut
		for i := range queue {
			cuts++
			for _, s := range out[i] {
				if !s.ok {
					continue
				}
				if s.isTo {
					return true
				}
				if !seen[s.key] {
					seen[s.key] = true
					next = append(next, s.cut)
				}
			}
		}
		queue = next
	}
	return false
}

// LevelCuts returns every consistent cut at the given level (number of
// non-initial events executed), in breadth-first frontier order. The
// result is empty when the level exceeds the computation's event count.
// This is the level-set primitive behind the equilevel detectors (Garg
// & Streit, "Parallel Algorithms for Equilevel Predicates", 2023):
// every run passes through exactly one cut of each level, so both
// modalities of an equilevel predicate reduce to one antichain scan.
func LevelCuts(c *computation.Computation, level int) []computation.Cut {
	return LevelCutsTraced(c, level, 1, nil)
}

// LevelCutsTraced is LevelCuts with a bounded worker pool over each
// frontier and the number of cuts explored (all levels up to and
// including the target) accumulated into the trace. The frontier order
// and counters are identical for every worker count.
func LevelCutsTraced(c *computation.Computation, level, workers int, tr *obs.Trace) []computation.Cut {
	var cuts int64
	defer func() {
		tr.Add("lattice.level_cuts_explored", cuts)
	}()
	if level < 0 {
		return nil
	}
	cur := []computation.Cut{c.InitialCut()}
	for d := 0; d < level && len(cur) > 0; d++ {
		cuts += int64(len(cur))
		out := make([][]succ, len(cur))
		par.Do(workers, len(cur), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k := cur[i]
				for _, id := range c.Enabled(k) {
					nk := c.Execute(k, c.Event(id).Proc)
					out[i] = append(out[i], succ{nk, nk.Key()})
				}
			}
		})
		// Successor levels never revisit earlier levels (the level of a
		// cut is its event count), so dedup is per transition.
		seen := make(map[string]bool)
		var next []computation.Cut
		for i := range cur {
			for _, s := range out[i] {
				if !seen[s.key] {
					seen[s.key] = true
					next = append(next, s.cut)
				}
			}
		}
		cur = next
	}
	cuts += int64(len(cur))
	return cur
}
