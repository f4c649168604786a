// Package symmetric detects symmetric global predicates on boolean
// variables, one per process, following Section 4.3 of Mittal & Garg.
//
// A predicate of n boolean variables is symmetric iff it is invariant
// under every permutation of its variables; equivalently (Kohavi), it is
// specified by a set of levels M, holding exactly when the number of true
// variables lies in M. Since Possibly distributes over disjunction and a
// boolean variable changes by at most one per event, Possibly(phi) for a
// symmetric phi reduces to |M| instances of the polynomial-time
// Possibly(sum = m) detector of core/relsum, all probed against the one
// range of the true-count quantity (relsum.Count) — this is the
// corollary the paper highlights: exclusive-or of local predicates,
// absence of a simple or two-thirds majority, exactly-k tokens and "not
// all equal" all become efficiently detectable.
package symmetric

import (
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Truth supplies the boolean variable of the event's process at the state
// following the event.
type Truth func(computation.Event) bool

// Spec is a symmetric predicate over n boolean variables: it holds at a
// cut iff the number of processes whose variable is true lies in Levels.
type Spec struct {
	// N is the number of variables (one per process of the computation).
	N int
	// Levels is the sorted set of true-counts at which the predicate
	// holds; entries outside [0, N] are ignored.
	Levels []int
}

// String renders the spec.
func (s Spec) String() string {
	return fmt.Sprintf("count in %v of %d", s.Levels, s.N)
}

// FromFunc builds a Spec from an arbitrary symmetric predicate given as a
// function of the true-count.
func FromFunc(n int, holds func(count int) bool) Spec {
	s := Spec{N: n}
	for m := 0; m <= n; m++ {
		if holds(m) {
			s.Levels = append(s.Levels, m)
		}
	}
	return s
}

// Parity holds when the number of true variables is odd (the exclusive-or
// of the local predicates) or even, per the odd flag.
func Parity(n int, odd bool) Spec {
	return FromFunc(n, func(m int) bool { return (m%2 == 1) == odd })
}

// Xor is the exclusive-or of the n local predicates: odd parity.
func Xor(n int) Spec { return Parity(n, true) }

// NoSimpleMajority holds when neither the true nor the false variables
// form a strict majority — possible only at count n/2 with n even.
func NoSimpleMajority(n int) Spec {
	return FromFunc(n, func(m int) bool { return 2*m <= n && 2*(n-m) <= n })
}

// NoTwoThirdsMajority holds when neither side reaches a two-thirds
// majority: 3*count < 2n and 3*(n-count) < 2n.
func NoTwoThirdsMajority(n int) Spec {
	return FromFunc(n, func(m int) bool { return 3*m < 2*n && 3*(n-m) < 2*n })
}

// ExactlyK holds when exactly k variables are true (for token predicates:
// exactly k tokens present).
func ExactlyK(n, k int) Spec { return Spec{N: n, Levels: []int{k}} }

// NotAllEqual holds unless all variables agree.
func NotAllEqual(n int) Spec {
	return FromFunc(n, func(m int) bool { return m != 0 && m != n })
}

// Attainable reports whether some level of the spec lies in [min, max]:
// whether the predicate holds at some consistent cut when the true-count
// ranges over exactly [min, max] (a count moves by at most one per
// event, so every value in between is attained).
func (s Spec) Attainable(min, max int64) bool {
	for _, m := range s.Levels {
		if int64(m) >= min && int64(m) <= max {
			return true
		}
	}
	return false
}

// Possibly reports whether some consistent cut satisfies the symmetric
// predicate, returning a witness cut when one exists and the range of
// the true-count (relsum.Count) over the consistent cuts. Runs in
// polynomial time: one relsum.Range, whose two closures run on a pool of
// workers, plus at most one witness walk from the range's extremal cuts.
// Identical verdict, witness and counters for every worker count; work
// counters (levels probed, closure work) accumulate into tr.
func Possibly(c *computation.Computation, spec Spec, truth Truth, workers int, tr *obs.Trace) (bool, computation.Cut, relsum.Bounds, error) {
	q := relsum.Count(c, truth)
	b := relsum.Range(q, workers, tr)
	var probed int64
	defer func() { tr.Add("symmetric.levels_probed", probed) }()
	for _, m := range spec.Levels {
		if m < 0 || m > spec.N {
			continue
		}
		probed++
		if int64(m) < b.Min || int64(m) > b.Max {
			continue
		}
		cut, ok := q.Attain(b, int64(m))
		if !ok {
			return false, nil, b, fmt.Errorf("symmetric: internal error: level %d in range [%d,%d] but no witness", m, b.Min, b.Max)
		}
		return true, cut, b, nil
	}
	return false, nil, b, nil
}

// Definitely reports whether every run passes through a cut satisfying the
// symmetric predicate. Definitely does not distribute over disjunction, so
// this falls back to region reachability in the cut lattice (worst-case
// exponential; the paper's polynomial corollary covers Possibly only),
// swept on a pool of workers with work counters accumulated into tr.
func Definitely(c *computation.Computation, spec Spec, truth Truth, workers int, tr *obs.Trace) (bool, error) {
	levels := make(map[int64]bool, len(spec.Levels))
	for _, m := range spec.Levels {
		levels[int64(m)] = true
	}
	q := relsum.Count(c, truth)
	outside := func(_ *computation.Computation, k computation.Cut) bool { return !levels[q.At(k)] }
	avoidable := lattice.PathExistsPar(c, c.InitialCut(), c.FinalCut(), outside, workers, tr)
	return !avoidable, nil
}

// Holds evaluates the predicate at a cut directly.
func Holds(c *computation.Computation, spec Spec, truth Truth, k computation.Cut) bool {
	count := c.CountTrue(k, func(e computation.Event) bool { return truth(e) })
	i := sort.SearchInts(spec.Levels, count)
	return i < len(spec.Levels) && spec.Levels[i] == count
}
