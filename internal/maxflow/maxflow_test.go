package maxflow

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/distributed-predicates/gpd/internal/obs"
)

func TestMaxFlowSimple(t *testing.T) {
	// s -> a -> t and s -> b -> t, unit capacities.
	g := NewGraph(4)
	s, a, b, tt := 0, 1, 2, 3
	g.AddEdge(s, a, 1)
	g.AddEdge(a, tt, 1)
	g.AddEdge(s, b, 1)
	g.AddEdge(b, tt, 1)
	if got := g.MaxFlow(s, tt); got != 2 {
		t.Fatalf("MaxFlow = %d, want 2", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// s -> a (10) -> b (3) -> t (10): flow limited by the middle edge.
	g := NewGraph(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 10)
	if got := g.MaxFlow(0, 3); got != 3 {
		t.Fatalf("MaxFlow = %d, want 3", got)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS figure: max flow 23.
	g := NewGraph(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v4, tt, 4)
	if got := g.MaxFlow(s, tt); got != 23 {
		t.Fatalf("MaxFlow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
	if got := NewGraph(2).MaxFlow(0, 0); got != 0 {
		t.Fatalf("MaxFlow(s,s) = %d, want 0", got)
	}
}

func TestMinCutSide(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 10)
	g.MaxFlow(0, 3)
	side := g.MinCutSide(0)
	if !side[0] || !side[1] || side[2] || side[3] {
		t.Fatalf("MinCutSide = %v, want {0,1}", side)
	}
}

// bruteClosure enumerates all subsets.
func bruteClosure(weights []int64, requires [][2]int) int64 {
	n := len(weights)
	best := int64(0) // empty closure
	for mask := 1; mask < 1<<n; mask++ {
		ok := true
		for _, r := range requires {
			if mask&(1<<r[0]) != 0 && mask&(1<<r[1]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var w int64
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				w += weights[v]
			}
		}
		if w > best {
			best = w
		}
	}
	return best
}

// closure solves one maximum-weight closure instance on a fresh graph,
// returning the value and the chosen nodes.
func closure(weights []int64, requires [][2]int, workers int, tr *obs.Trace) (int64, []bool) {
	mask := make([]bool, len(weights))
	return new(Graph).Closure(weights, false, requires, workers, mask, tr), mask
}

func TestMaxClosureAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(rng.Intn(21) - 10)
		}
		var requires [][2]int
		// Random DAG edges v -> u with u < v (so requirements are
		// acyclic).
		for v := 1; v < n; v++ {
			for u := 0; u < v; u++ {
				if rng.Intn(3) == 0 {
					requires = append(requires, [2]int{v, u})
				}
			}
		}
		want := bruteClosure(weights, requires)
		got, mask := closure(weights, requires, 1, nil)
		if got != want {
			t.Fatalf("trial %d: MaxClosure = %d, brute = %d (w=%v req=%v)",
				trial, got, want, weights, requires)
		}
		// The returned mask must be a valid closure achieving the value.
		var w int64
		for v := range mask {
			if mask[v] {
				w += weights[v]
			}
		}
		if w != got {
			t.Fatalf("trial %d: mask weight %d != reported %d", trial, w, got)
		}
		for _, r := range requires {
			if mask[r[0]] && !mask[r[1]] {
				t.Fatalf("trial %d: mask violates requirement %v", trial, r)
			}
		}
	}
}

func TestMaxClosureAllNegative(t *testing.T) {
	got, mask := closure([]int64{-1, -5}, nil, 1, nil)
	if got != 0 {
		t.Fatalf("Closure = %d, want 0 (empty closure)", got)
	}
	if mask[0] || mask[1] {
		t.Fatalf("mask = %v, want empty", mask)
	}
}

func TestMaxClosureChain(t *testing.T) {
	// 2 requires 1 requires 0; weights 5, -3, 4: take all = 6; take {0}
	// = 5; best 6.
	got, _ := closure([]int64{5, -3, 4}, [][2]int{{1, 0}, {2, 1}}, 1, nil)
	if got != 6 {
		t.Fatalf("Closure = %d, want 6", got)
	}
}

// TestGraphReuseMatchesFresh solves random closure instances one after
// another in a single reused Graph, alternately growing and shrinking
// it, in both orientations. Every instance must give the value and mask
// of a fresh graph and the brute-force value: stale heads, arcs,
// residual capacities or search scratch from a larger earlier instance
// would show up here.
func TestGraphReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := new(Graph)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		if trial%2 == 0 {
			n += 6 // alternate large and small instances
		}
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(rng.Intn(21) - 10)
		}
		var requires [][2]int
		for v := 1; v < n; v++ {
			for u := 0; u < v; u++ {
				if rng.Intn(3) == 0 {
					requires = append(requires, [2]int{v, u})
				}
			}
		}
		negate := rng.Intn(2) == 0
		eff := weights
		if negate {
			eff = make([]int64, n)
			for i, w := range weights {
				eff[i] = -w
			}
		}
		mask := make([]bool, n)
		got := g.Closure(weights, negate, requires, 1, mask, nil)
		want, wantMask := closure(eff, requires, 1, nil)
		if got != want || !reflect.DeepEqual(mask, wantMask) {
			t.Fatalf("trial %d: reused graph (%d, %v), fresh (%d, %v)", trial, got, mask, want, wantMask)
		}
		if brute := bruteClosure(eff, requires); got != brute {
			t.Fatalf("trial %d: reused graph %d, brute %d", trial, got, brute)
		}
		// The maskless route must agree too.
		if v := g.Closure(weights, negate, requires, 1, nil, nil); v != got {
			t.Fatalf("trial %d: maskless %d, with mask %d", trial, v, got)
		}
	}
}

// A reused graph must not allocate once its storage has grown.
func TestGraphClosureReuseAllocs(t *testing.T) {
	weights, requires := randomClosureInstance(3, 60)
	g := new(Graph)
	g.Closure(weights, false, requires, 1, nil, nil)
	allocs := testing.AllocsPerRun(20, func() {
		g.Closure(weights, false, requires, 1, nil, nil)
		g.Closure(weights, true, requires, 1, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("reused closure pair allocates %.1f times, want 0", allocs)
	}
}
