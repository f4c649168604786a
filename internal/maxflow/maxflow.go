// Package maxflow provides Dinic's maximum-flow algorithm and, on top of
// it, the classic max-weight closure reduction. Closures (downward-closed
// sets of a DAG, i.e. order ideals) are exactly the consistent cuts of a
// computation, so this package is the engine behind the polynomial-time
// min/max computations over consistent cuts used by the relational-sum
// detectors (Chase & Garg's technique for relational predicates).
package maxflow

import (
	"math"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// Graph is a flow network under construction. Nodes are dense ints; add
// edges with AddEdge and call MaxFlow. A Graph is also a reusable arena:
// Reset empties it but keeps its node, arc and search storage, so a
// caller that solves one network after another (a streamed closure
// flushed on every batch) allocates nothing once the storage has grown
// to the largest network seen.
type Graph struct {
	n    int
	head []int // head[v] = first arc index of v, -1 if none
	next []int // next arc in v's list
	to   []int
	cap  []int64

	// Search scratch reused across phases and resets: BFS levels, DFS
	// arc cursors, the BFS queue (also the residual-reachability
	// stack) and the min-cut side mask.
	level []int
	iter  []int
	queue []int
	side  []bool

	augPaths int64 // augmenting paths found by MaxFlow
	phases   int64 // BFS level graphs built by MaxFlow
}

// NewGraph returns an empty flow network with n nodes.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset empties the graph to n nodes and no arcs, zeroing its work
// counters while keeping every buffer's capacity for reuse.
func (g *Graph) Reset(n int) {
	g.n = n
	g.head = resize(g.head, n)
	for i := range g.head {
		g.head[i] = -1
	}
	g.next, g.to, g.cap = g.next[:0], g.to[:0], g.cap[:0]
	g.augPaths, g.phases = 0, 0
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AddEdge adds a directed edge u->v with the given capacity (and its
// residual reverse edge with capacity 0). Capacities must be non-negative.
func (g *Graph) AddEdge(u, v int, capacity int64) {
	g.addArc(u, v, capacity)
	g.addArc(v, u, 0)
}

func (g *Graph) addArc(u, v int, c int64) {
	g.to = append(g.to, v)
	g.cap = append(g.cap, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = len(g.to) - 1
}

// Infinity is a capacity treated as unbounded.
const Infinity = math.MaxInt64 / 4

// MaxFlow computes the maximum s-t flow with Dinic's algorithm. The graph
// is consumed: capacities become residual capacities.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	g.level = resize(g.level, g.n)
	g.iter = resize(g.iter, g.n)
	var total int64
	for g.bfs(s, t) {
		total += g.blockingFlow(s, t)
	}
	return total
}

// blockingFlow augments along the current level graph until no
// shortest path is left, counting the phase and its augmenting paths.
func (g *Graph) blockingFlow(s, t int) int64 {
	g.phases++
	copy(g.iter, g.head)
	var total int64
	for {
		f := g.dfs(s, t, Infinity)
		if f == 0 {
			return total
		}
		g.augPaths++
		total += f
	}
}

// FlowStats reports the work done by MaxFlow so far: augmenting paths
// found and BFS phases (level graphs) built.
func (g *Graph) FlowStats() (augmentingPaths, phases int64) {
	return g.augPaths, g.phases
}

// bfs labels residual nodes with their distance from s and reports
// whether t is reachable. It stops once the sink's level is fully
// labelled: nodes further out cannot lie on a shortest augmenting path,
// and the labels it does assign equal those of the exhaustive search,
// so the blocking flow (and every counter) matches bfsPar exactly.
func (g *Graph) bfs(s, t int) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	q := append(g.queue[:0], s)
	level[s] = 0
	for i := 0; i < len(q); i++ {
		v := q[i]
		if lt := level[t]; lt >= 0 && level[v] >= lt {
			break
		}
		for a := g.head[v]; a != -1; a = g.next[a] {
			if w := g.to[a]; g.cap[a] > 0 && level[w] < 0 {
				level[w] = level[v] + 1
				q = append(q, w)
			}
		}
	}
	g.queue = q
	return level[t] >= 0
}

func (g *Graph) dfs(v, t int, f int64) int64 {
	if v == t {
		return f
	}
	level, iter := g.level, g.iter
	for ; iter[v] != -1; iter[v] = g.next[iter[v]] {
		a := iter[v]
		w := g.to[a]
		if g.cap[a] > 0 && level[w] == level[v]+1 {
			m := f
			if g.cap[a] < m {
				m = g.cap[a]
			}
			d := g.dfs(w, t, m)
			if d > 0 {
				g.cap[a] -= d
				g.cap[a^1] += d
				return d
			}
		}
	}
	return 0
}

// MinCutSide returns, after MaxFlow(s, t) has run, the set of nodes on the
// source side of a minimum cut (reachable from s in the residual graph) as
// a boolean mask.
func (g *Graph) MinCutSide(s int) []bool {
	return append([]bool(nil), g.sourceSide(s)...)
}

// sourceSide marks the nodes reachable from s in the residual graph in
// the reused side mask, which stays valid until the next call.
func (g *Graph) sourceSide(s int) []bool {
	side := resize(g.side, g.n)
	for i := range side {
		side[i] = false
	}
	stack := append(g.queue[:0], s)
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := g.head[v]; a != -1; a = g.next[a] {
			if w := g.to[a]; g.cap[a] > 0 && !side[w] {
				side[w] = true
				stack = append(stack, w)
			}
		}
	}
	g.side, g.queue = side, stack
	return side
}

// Closure solves one maximum-weight closure problem in g's storage:
// choose a set of nodes closed under the "v requires u" pairs of
// requires (u must be chosen whenever v is) maximizing the sum of the
// weights (negated when negate is set, which turns the maximum into
// minus the minimum closure weight). The empty closure is allowed, so
// the result is never negative. When mask is non-nil it must have
// len(weights) entries and receives the chosen closure. The flow phases
// run on a pool of workers with identical value, mask and counters for
// every worker count; work counters (augmenting paths, BFS phases,
// graph and closure sizes) accumulate into tr, and a nil trace is free.
// It is the single closure reduction behind every caller — the batch
// range detectors through MaxClosurePair, the streamed range tracker on
// a Graph it keeps — and with a reused g, no mask and no trace it
// allocates nothing once the arena has grown.
func (g *Graph) Closure(weights []int64, negate bool, requires [][2]int, workers int, mask []bool, tr *obs.Trace) int64 {
	// Standard reduction: source -> v with cap w(v) for positive
	// weights, v -> sink with cap -w(v) for negative weights, and an
	// infinite edge v -> u for every requirement (v requires u). The
	// min cut separates the chosen closure (source side) from the rest.
	n := len(weights)
	g.Reset(n + 2)
	s, t := n, n+1
	var totalPos int64
	for v, w := range weights {
		if negate {
			w = -w
		}
		if w > 0 {
			g.AddEdge(s, v, w)
			totalPos += w
		} else if w < 0 {
			g.AddEdge(v, t, -w)
		}
	}
	for _, r := range requires {
		g.AddEdge(r[0], r[1], Infinity)
	}
	flow := g.MaxFlowPar(s, t, workers)
	if mask == nil && tr == nil {
		return totalPos - flow
	}
	side := g.sourceSide(s)[:n]
	copy(mask, side)
	if tr != nil {
		var size int64
		for _, in := range side {
			if in {
				size++
			}
		}
		tr.Add("maxflow.augmenting_paths", g.augPaths)
		tr.Add("maxflow.bfs_phases", g.phases)
		tr.Add("maxflow.closures", 1)
		tr.Add("maxflow.closure_size", size)
		tr.Add("maxflow.graph_nodes", int64(n))
		tr.Add("maxflow.graph_arcs", int64(len(g.to)))
	}
	return totalPos - flow
}
