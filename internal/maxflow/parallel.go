package maxflow

import (
	"sync"

	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
)

// MaxFlowPar is MaxFlow with each BFS phase (level-graph construction)
// spread over a bounded worker pool. BFS levels are shortest distances,
// so they do not depend on visit order within a level — the level
// graph, the blocking-flow search over it, and therefore the flow value
// and all counters are identical for every worker count. workers <= 1
// runs the exact sequential algorithm.
func (g *Graph) MaxFlowPar(s, t, workers int) int64 {
	if workers <= 1 {
		return g.MaxFlow(s, t)
	}
	if s == t {
		return 0
	}
	g.level = resize(g.level, g.n)
	g.iter = resize(g.iter, g.n)
	var total int64
	for g.bfsPar(s, t, workers) {
		total += g.blockingFlow(s, t)
	}
	return total
}

// bfsPar builds the residual level graph level-synchronously: workers
// scan disjoint chunks of the current frontier for unlabelled residual
// neighbours (pure reads), and a sequential merge labels them in
// frontier order. Small frontiers run inline via par.Do's chunk floor.
func (g *Graph) bfsPar(s, t, workers int) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	frontier := []int{s}
	for d := 1; len(frontier) > 0; d++ {
		out := make([][]int, len(frontier))
		par.Do(workers, len(frontier), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for a := g.head[frontier[i]]; a != -1; a = g.next[a] {
					if g.cap[a] > 0 && level[g.to[a]] < 0 {
						out[i] = append(out[i], g.to[a])
					}
				}
			}
		})
		var next []int
		for _, cands := range out {
			for _, w := range cands {
				if level[w] < 0 {
					level[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level[t] >= 0
}

// MaxClosurePair solves the two closure problems behind every sum
// range — the maximum-weight closure of weights and of their negation
// (whose value negated is the minimum) — splitting the worker budget
// across the two independent flow computations when workers > 1. The
// trace is shared: Trace is mutex-guarded and counter addition is
// commutative, and both closures always run to completion, so totals
// are deterministic. Returns the weights closure first, the negated one
// second, in the same order the sequential callers computed them.
func MaxClosurePair(weights []int64, requires [][2]int, workers int, tr *obs.Trace) (best int64, bestMask []bool, negBest int64, negMask []bool) {
	bestMask = make([]bool, len(weights))
	negMask = make([]bool, len(weights))
	if workers <= 1 {
		g := new(Graph)
		best = g.Closure(weights, false, requires, 1, bestMask, tr)
		negBest = g.Closure(weights, true, requires, 1, negMask, tr)
		return
	}
	half := workers / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		negBest = new(Graph).Closure(weights, true, requires, half, negMask, tr)
	}()
	best = new(Graph).Closure(weights, false, requires, workers-half, bestMask, tr)
	wg.Wait()
	return
}
