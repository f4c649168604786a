package gpd

import (
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
)

// SingularStrategy selects the singular detection algorithm of a cnf
// predicate (see WithStrategy).
type SingularStrategy = singular.Strategy

// Singular detection strategies.
const (
	// StrategyAuto tries receive-ordered, then send-ordered, then chain
	// covers.
	StrategyAuto = singular.Auto
	// StrategyReceiveOrdered is the polynomial Section 3.2 algorithm;
	// it fails unless receives are totally ordered per meta-process.
	StrategyReceiveOrdered = singular.ReceiveOrdered
	// StrategySendOrdered is its time-reversed dual.
	StrategySendOrdered = singular.SendOrdered
	// StrategyProcessSubsets is general algorithm A (<= k^g CPDHB runs).
	StrategyProcessSubsets = singular.ProcessSubsets
	// StrategyChainCover is general algorithm B (<= c^g CPDHB runs).
	StrategyChainCover = singular.ChainCover
)

// Singular detection errors.
var (
	// ErrNotSingular reports a predicate sharing a process between
	// clauses.
	ErrNotSingular = singular.ErrNotSingular
	// ErrNotOrdered reports a computation outside the polynomial
	// special cases.
	ErrNotOrdered = singular.ErrNotOrdered
	// ErrNotUnitStep reports a variable changing by more than one per
	// event, outside the scope of the polynomial equality detectors.
	ErrNotUnitStep = relsum.ErrNotUnitStep
)

// Relop is a relational operator for sum predicates.
type Relop = relsum.Relop

// Relational operators.
const (
	Lt = relsum.Lt
	Le = relsum.Le
	Eq = relsum.Eq
	Ge = relsum.Ge
	Gt = relsum.Gt
	Ne = relsum.Ne
)

// ParseRelop parses "<", "<=", "==", ">=", ">", "!=".
func ParseRelop(s string) (Relop, error) { return relsum.ParseRelop(s) }

// SumRange returns the exact minimum and maximum over all consistent cuts
// of the sum of the named per-process variable, in polynomial time via a
// max-weight closure (min-cut) computation. No step-size assumption.
func SumRange(c *Computation, name string) (min, max int64) {
	return rangeOf(relsum.Var(c, name))
}

// ValidateUnitStep checks that the named variable changes by at most one
// at every event.
func ValidateUnitStep(c *Computation, name string) error {
	return relsum.Var(c, name).ValidateUnitStep()
}

// EventWeight assigns a per-event change to a global quantity; the
// quantity at a cut is a base value plus the sum over the cut's
// non-initial events. Variable sums and channel occupancy are both
// instances, and both enjoy the same polynomial min/max machinery.
type EventWeight = relsum.Weight

// WeightedRange returns the exact minimum and maximum over all consistent
// cuts of base + the summed event weights, in polynomial time.
func WeightedRange(c *Computation, base int64, w EventWeight) (min, max int64) {
	return rangeOf(relsum.Weighted(c, base, w))
}

// PossiblyWeighted decides Possibly(quantity relop k) for an ideal-sum
// quantity; equality requires unit weights (ErrNotUnitStep otherwise).
func PossiblyWeighted(c *Computation, base int64, w EventWeight, r Relop, k int64) (bool, error) {
	ok, _, _, err := relsum.Possibly(relsum.Weighted(c, base, w), r, k, 1, nil)
	return ok, err
}

// DefinitelyWeighted decides Definitely(quantity relop k) for an
// ideal-sum quantity by region reachability (worst-case exponential;
// equality requires unit weights).
func DefinitelyWeighted(c *Computation, base int64, w EventWeight, r Relop, k int64) (bool, error) {
	return relsum.Definitely(relsum.Weighted(c, base, w), r, k, 1, nil)
}

// InFlightRange returns the minimum and maximum number of messages in
// flight (sent but not received) over all consistent cuts — channel
// occupancy bounds, including quiescence (min) and the buffer requirement
// (max).
func InFlightRange(c *Computation) (min, max int64) {
	return rangeOf(relsum.InFlight(c))
}

// rangeOf is the sequential range of an ideal-sum quantity.
func rangeOf(q relsum.Quantity) (min, max int64) {
	b := relsum.Range(q, 1, nil)
	return b.Min, b.Max
}
