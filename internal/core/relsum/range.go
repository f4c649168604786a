package relsum

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Bounds is the exact range of a quantity over the consistent cuts of
// its computation, with a cut attaining each extreme.
type Bounds struct {
	Min, Max       int64
	ArgMin, ArgMax computation.Cut
}

// Range computes the exact range of the quantity over all consistent
// cuts in polynomial time, with no assumption on the per-event weights:
// consistent cuts are the order ideals of the event DAG, so the extrema
// are two max-weight closures (of the weights and of their negation),
// solved by maxflow.MaxClosurePair with the worker budget split across
// the two flows. The closure masks give the extremal cuts. Closure work
// counters accumulate into tr; a nil trace is free. The result is
// identical for every worker count.
func Range(q Quantity, workers int, tr *obs.Trace) Bounds {
	c := q.c
	// Initial events weigh nothing (every cut contains them); the
	// requirement edges are "event requires its non-initial direct
	// predecessors".
	weights := make([]int64, c.NumEvents())
	var requires [][2]int
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			return true
		}
		weights[int(e.ID)] = q.Weight(e)
		for _, p := range c.DirectPreds(e.ID) {
			if !c.Event(p).IsInitial() {
				requires = append(requires, [2]int{int(e.ID), int(p)})
			}
		}
		return true
	})
	best, maskMax, worst, maskMin := maxflow.MaxClosurePair(weights, requires, workers, tr)
	return Bounds{
		Min: q.base - worst, Max: q.base + best,
		ArgMin: maskToCut(c, maskMin), ArgMax: maskToCut(c, maskMax),
	}
}

// maskToCut converts a closure membership mask over event ids into the
// frontier cut containing exactly the chosen events plus all initial
// events.
func maskToCut(c *computation.Computation, mask []bool) computation.Cut {
	k := c.InitialCut()
	c.Events(func(e computation.Event) bool {
		if !e.IsInitial() && mask[int(e.ID)] && e.Index > k[int(e.Proc)] {
			k[int(e.Proc)] = e.Index
		}
		return true
	})
	return k
}

// Possibly decides Possibly(q relop k) from the quantity's Range
// (Theorem 7(1)), returning a consistent cut satisfying the predicate
// when it holds, and the range itself.
//
// The order operators and != are exact with arbitrary weights; their
// witness is the extremal cut the range computation built (the argmin
// cut for < and <=, the argmax cut for > and >=, and for != the
// extremum that differs from k). == requires a unit-step quantity
// (ErrNotUnitStep otherwise: with arbitrary steps the problem is
// NP-complete, Theorem 3); its witness is found by Attain.
func Possibly(q Quantity, r Relop, k int64, workers int, tr *obs.Trace) (bool, computation.Cut, Bounds, error) {
	switch r {
	case Lt, Le, Ge, Gt, Ne:
	case Eq:
		if err := q.ValidateUnitStep(); err != nil {
			return false, nil, Bounds{}, err
		}
	default:
		return false, nil, Bounds{}, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
	b := Range(q, workers, tr)
	switch {
	case !r.Attainable(b.Min, b.Max, k):
		return false, nil, b, nil
	case r == Eq:
		cut, ok := q.Attain(b, k)
		if !ok {
			// Unreachable for unit-step quantities; guarded for safety.
			return false, nil, b, fmt.Errorf("relsum: internal error: no witness for %s == %d in [%d,%d]", q.name, k, b.Min, b.Max)
		}
		return true, cut, b, nil
	case r == Gt || r == Ge || (r == Ne && b.Min == k):
		return true, b.ArgMax, b, nil
	default:
		return true, b.ArgMin, b, nil
	}
}

// Definitely decides Definitely(q relop k): does every run of the
// computation pass through a consistent cut with q relop k?
//
// A run avoids the predicate iff the cut lattice contains a bottom-to-top
// path inside the complementary region, so each operator reduces to one
// region-reachability query; == on a unit-step quantity reduces to the
// two queries of Theorem 7(2), Definitely(q <= k) and Definitely(q >= k)
// (a run cannot cross k without landing on it). Region reachability
// explores at most the consistent cuts of the region — far fewer than
// the run enumeration of the naive detector, but still exponential in
// the worst case; the paper defers polynomial algorithms for the <=/>=
// primitives to prior work and this package keeps their role explicit
// instead. The sweep runs on a pool of workers with identical verdict
// and counters for every worker count.
func Definitely(q Quantity, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	switch r {
	case Lt, Le, Ge, Gt, Ne:
		return !q.avoidable(r, k, workers, tr), nil
	case Eq:
		if err := q.ValidateUnitStep(); err != nil {
			return false, err
		}
		return !q.avoidable(Le, k, workers, tr) && !q.avoidable(Ge, k, workers, tr), nil
	default:
		return false, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
}

// avoidable reports whether some run avoids "q relop k" entirely, i.e.
// the lattice has a bottom-to-top path through the complement.
func (q Quantity) avoidable(r Relop, k int64, workers int, tr *obs.Trace) bool {
	c := q.c
	outside := func(_ *computation.Computation, cut computation.Cut) bool { return !r.Eval(q.At(cut), k) }
	return lattice.PathExistsPar(c, c.InitialCut(), c.FinalCut(), outside, workers, tr)
}
