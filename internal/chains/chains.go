// Package chains computes minimum chain covers of finite posets. A chain is
// a totally ordered subset; by Dilworth's theorem the minimum number of
// chains covering a poset equals the maximum antichain size, and Fulkerson's
// reduction finds it via maximum bipartite matching on the comparability
// relation.
//
// Section 3.3 of Mittal & Garg uses chain covers of the true events of a
// process group: the general singular k-CNF detector only needs one CPDHB
// call per selection of one chain per group, and the number of chains c is
// often far below the group size k — an exponential reduction from k^g to
// c^g.
package chains

import (
	"github.com/distributed-predicates/gpd/internal/matching"
	"github.com/distributed-predicates/gpd/internal/par"
)

// Cover computes a minimum chain cover of the poset over n elements whose
// strict order is given by less(i, j) meaning element i is strictly below
// element j. less must be irreflexive and transitive. The result is a list
// of chains, each a list of element indices in increasing order; every
// element appears in exactly one chain, and the number of chains is
// minimum.
//
// The comparability relation is evaluated on a pool of workers: they
// fill the adjacency rows (less is pure), and the matching then consumes
// edges in (i, j) order, so the cover is identical for every worker
// count. The n^2 less-evaluations dominate when the order test is
// expensive (e.g. a Precedes check per pair), which is exactly the
// singular detector's case.
func Cover(n int, less func(i, j int) bool, workers int) [][]int {
	// Fulkerson: split each element x into a left copy and a right copy;
	// connect left(i) to right(j) iff i < j. A maximum matching pairs
	// each element with its chain successor; uncovered left copies end
	// chains, so #chains = n - matching size (minimum by König/Dilworth).
	rows := make([][]int, n)
	par.Do(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				if i != j && less(i, j) {
					rows[i] = append(rows[i], j)
				}
			}
		}
	})
	b := matching.NewBipartite(n, n)
	for i, row := range rows {
		for _, j := range row {
			b.AddEdge(i, j)
		}
	}
	_, succ := b.MaxMatching()
	hasPred := make([]bool, n)
	for i := 0; i < n; i++ {
		if succ[i] >= 0 {
			hasPred[succ[i]] = true
		}
	}
	var cover [][]int
	for i := 0; i < n; i++ {
		if hasPred[i] {
			continue
		}
		chain := []int{i}
		for x := succ[i]; x >= 0; x = succ[x] {
			chain = append(chain, x)
		}
		cover = append(cover, chain)
	}
	return cover
}

// Width returns the maximum antichain size of the poset, which by Dilworth
// equals the minimum chain cover size.
func Width(n int, less func(i, j int) bool, workers int) int {
	return len(Cover(n, less, workers))
}
