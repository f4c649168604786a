package relsum

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// This file holds the parallel routes of the sum detectors. Every range
// computation bottoms out in the same pair of max-weight closures
// (minimum and maximum of the quantity), built by closureInputs and
// solved by maxflow.MaxClosurePairTraced — which splits the worker
// budget across the two independent flows and parallelizes the BFS
// phases inside each. The Definitely side threads its workers into the
// lattice region-reachability sweep instead. workers <= 1 everywhere
// reproduces the exact sequential call sequence.

// closureInputs builds the closure instance shared by every ranged
// detector: per-event weights (zero for initial events, which are part
// of every cut) and the requirement edges "event requires its
// non-initial direct predecessors".
func closureInputs(c *computation.Computation, w Weight) (weights []int64, requires [][2]int) {
	weights = make([]int64, c.NumEvents())
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			return true
		}
		weights[int(e.ID)] = w(e)
		for _, p := range c.DirectPreds(e.ID) {
			if !c.Event(p).IsInitial() {
				requires = append(requires, [2]int{int(e.ID), int(p)})
			}
		}
		return true
	})
	return weights, requires
}

// deltaWeight is the per-event change of a named per-process variable —
// the weight function that makes variable sums an ideal-sum quantity.
func deltaWeight(c *computation.Computation, name string) Weight {
	return func(e computation.Event) int64 { return delta(c, name, e.ID) }
}

// baselineOf sums the named variable over the initial events (its value
// at the initial cut).
func baselineOf(c *computation.Computation, name string) int64 {
	var base int64
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			base += c.Var(name, e.ID)
		}
		return true
	})
	return base
}

// weightedRangeWitnessPar computes the exact range of base + ideal sum
// together with cuts achieving the extremes, solving the two closures
// on a bounded worker pool.
func weightedRangeWitnessPar(c *computation.Computation, base int64, w Weight, workers int, tr *obs.Trace) (min, max int64, argmin, argmax computation.Cut) {
	weights, requires := closureInputs(c, w)
	best, maskMax, worst, maskMin := maxflow.MaxClosurePairTraced(weights, requires, workers, tr)
	max = base + best
	argmax = maskToCut(c, maskMax)
	min = base - worst
	argmin = maskToCut(c, maskMin)
	return min, max, argmin, argmax
}

// sumRangeWitnessPar is weightedRangeWitnessPar specialised to a named
// per-process variable sum.
func sumRangeWitnessPar(c *computation.Computation, name string, workers int, tr *obs.Trace) (min, max int64, argmin, argmax computation.Cut) {
	return weightedRangeWitnessPar(c, baselineOf(c, name), deltaWeight(c, name), workers, tr)
}

// SumRangePar is SumRangeTraced with the two closure computations run
// on a bounded worker pool. Identical extrema and counters for every
// worker count.
func SumRangePar(c *computation.Computation, name string, workers int, tr *obs.Trace) (min, max int64) {
	min, max, _, _ = sumRangeWitnessPar(c, name, workers, tr)
	return min, max
}

// WeightedRangePar is WeightedRangeTraced on a bounded worker pool.
func WeightedRangePar(c *computation.Computation, base int64, w Weight, workers int, tr *obs.Trace) (min, max int64) {
	min, max, _, _ = weightedRangeWitnessPar(c, base, w, workers, tr)
	return min, max
}

// InFlightRangePar is InFlightRangeTraced on a bounded worker pool.
func InFlightRangePar(c *computation.Computation, workers int, tr *obs.Trace) (min, max int64) {
	return WeightedRangePar(c, 0, InFlightWeight(c), workers, tr)
}

// PossiblyPar is PossiblyTraced with the range computation run on a
// bounded worker pool.
func PossiblyPar(c *computation.Computation, name string, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	min, max := SumRangePar(c, name, workers, tr)
	return possiblyFromRange(c, name, r, k, min, max)
}

// PossiblyWitnessPar is PossiblyPar that also returns a consistent cut
// satisfying the predicate when it holds. Equality scans a lattice path
// for the witness (PossiblyEqWitnessPar); the order operators and !=
// return the extremal cut the range computation already built: the
// argmin cut for < and <=, the argmax cut for > and >=, and for != the
// extremum that differs from k.
func PossiblyWitnessPar(c *computation.Computation, name string, r Relop, k int64, workers int, tr *obs.Trace) (bool, computation.Cut, error) {
	if r == Eq {
		return PossiblyEqWitnessPar(c, name, k, workers, tr)
	}
	min, max, argmin, argmax := sumRangeWitnessPar(c, name, workers, tr)
	ok, err := possiblyFromRange(c, name, r, k, min, max)
	if !ok || err != nil {
		return ok, nil, err
	}
	if r == Gt || r == Ge || (r == Ne && min == k) {
		return true, argmax, nil
	}
	return true, argmin, nil
}

// possiblyFromRange applies the Theorem 7(1) range decision shared by
// the sequential and parallel Possibly routes.
func possiblyFromRange(c *computation.Computation, name string, r Relop, k, min, max int64) (bool, error) {
	switch r {
	case Lt:
		return min < k, nil
	case Le:
		return min <= k, nil
	case Ge:
		return max >= k, nil
	case Gt:
		return max > k, nil
	case Ne:
		return min != k || max != k, nil
	case Eq:
		if err := ValidateUnitStep(c, name); err != nil {
			return false, err
		}
		return min <= k && k <= max, nil
	default:
		return false, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
}

// PossiblyEqWitnessPar is PossiblyEqWitnessTraced with the extremal
// cuts computed on a bounded worker pool; the witness path scans stay
// sequential (they are linear in the number of events).
func PossiblyEqWitnessPar(c *computation.Computation, name string, k int64, workers int, tr *obs.Trace) (bool, computation.Cut, error) {
	if err := ValidateUnitStep(c, name); err != nil {
		return false, nil, err
	}
	min, max, argmin, argmax := sumRangeWitnessPar(c, name, workers, tr)
	if k < min || k > max {
		return false, nil, nil
	}
	// Path 1 covers [min, S(final)], path 2 covers [S(final), max]; their
	// union is [min, max].
	if cut, ok := scanPath(c, name, k, argmin); ok {
		return true, cut, nil
	}
	if cut, ok := scanPath(c, name, k, argmax); ok {
		return true, cut, nil
	}
	// Unreachable for unit-step computations; guarded for safety.
	return false, nil, fmt.Errorf("relsum: internal error: no witness for k=%d in [%d,%d]", k, min, max)
}

// PossiblyQuiescentPar is PossiblyQuiescentTraced on a bounded worker
// pool.
func PossiblyQuiescentPar(c *computation.Computation, k int64, workers int, tr *obs.Trace) (bool, computation.Cut, error) {
	w := InFlightWeight(c)
	if err := validateUnitWeight(c, w); err != nil {
		return false, nil, err
	}
	min, max, argmin, argmax := weightedRangeWitnessPar(c, 0, w, workers, tr)
	if k < min || k > max {
		return false, nil, nil
	}
	// Walk paths through both extreme cuts; by the intermediate-value
	// property one of them passes through occupancy k.
	if cut, ok := scanWeighted(c, w, k, argmin); ok {
		return true, cut, nil
	}
	if cut, ok := scanWeighted(c, w, k, argmax); ok {
		return true, cut, nil
	}
	return false, nil, fmt.Errorf("relsum: internal error: no in-flight witness for %d in [%d,%d]", k, min, max)
}

// PossiblyWeightedPar is PossiblyWeightedTraced on a bounded worker
// pool.
func PossiblyWeightedPar(c *computation.Computation, base int64, w Weight, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	min, max := WeightedRangePar(c, base, w, workers, tr)
	switch r {
	case Lt:
		return min < k, nil
	case Le:
		return min <= k, nil
	case Ge:
		return max >= k, nil
	case Gt:
		return max > k, nil
	case Ne:
		return min != k || max != k, nil
	case Eq:
		if err := validateUnitWeight(c, w); err != nil {
			return false, err
		}
		return min <= k && k <= max, nil
	default:
		return false, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
}

// DefinitelyPar is DefinitelyTraced with the region-reachability sweeps
// run on a bounded worker pool.
func DefinitelyPar(c *computation.Computation, name string, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	switch r {
	case Lt:
		return definitelyLe(c, name, k-1, workers, tr), nil
	case Le:
		return definitelyLe(c, name, k, workers, tr), nil
	case Ge:
		return definitelyGe(c, name, k, workers, tr), nil
	case Gt:
		return definitelyGe(c, name, k+1, workers, tr), nil
	case Ne:
		// A run avoids S != k iff it stays on the S == k plateau.
		return !avoidable(c, region(name, Ne, k), workers, tr), nil
	case Eq:
		if err := ValidateUnitStep(c, name); err != nil {
			return false, err
		}
		// Theorem 7(2): with unit steps a run hits S == k exactly
		// when it dips to <= k and rises to >= k (intermediate value
		// along the run).
		return definitelyLe(c, name, k, workers, tr) && definitelyGe(c, name, k, workers, tr), nil
	default:
		return false, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
}

// DefinitelyWeightedPar is DefinitelyWeightedTraced with the
// region-reachability sweeps run on a bounded worker pool.
func DefinitelyWeightedPar(c *computation.Computation, base int64, w Weight, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	at := func(cc *computation.Computation, cut computation.Cut) int64 {
		return WeightedAt(cc, base, w, cut)
	}
	reg := func(rr Relop, kk int64) lattice.Predicate {
		return func(cc *computation.Computation, cut computation.Cut) bool {
			return rr.Eval(at(cc, cut), kk)
		}
	}
	switch r {
	case Lt, Le, Ge, Gt, Ne:
		return !avoidable(c, reg(r, k), workers, tr), nil
	case Eq:
		if err := validateUnitWeight(c, w); err != nil {
			return false, err
		}
		return !avoidable(c, reg(Le, k), workers, tr) && !avoidable(c, reg(Ge, k), workers, tr), nil
	default:
		return false, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
}
