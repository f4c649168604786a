// Package relsum implements detection of relational sum predicates
// "x1 + ... + xn relop k", where each xi is an integer variable on process
// i, following Section 4 of Mittal & Garg (ICDCS 2001).
//
// The headline result: when every event changes its process's variable by
// at most one (unit-step computations), Possibly(S = k) is decidable in
// polynomial time — by Theorem 7(1) it holds iff Possibly(S <= k) and
// Possibly(S >= k) both hold, i.e. iff k lies between the minimum and the
// maximum of S over all consistent cuts. Those extrema are computed exactly
// by a max-weight closure (min-cut) construction over the event DAG, since
// consistent cuts are precisely the order ideals (Chase & Garg's technique
// for relational predicates). With arbitrary per-event changes the problem
// is NP-complete (Theorem 3; see core/reduction).
//
// Definitely(S = k) is decided through the Theorem 7(2) decomposition
// Definitely(S <= k) and Definitely(S >= k); the paper defers those two
// primitives to earlier work, and this package decides them by reachability
// inside the cut lattice restricted to the complementary region (worst-case
// exponential, unlike the Possibly side).
//
// The machinery needs only that S is an ideal sum: a base value plus a
// weight per event, summed over the events of the cut. A Quantity is
// one such sum, built for a variable (Var), for channel occupancy
// (InFlight: sends minus receives), for the true-count of a boolean
// variable (Count, the §4.3 reduction of symmetric predicates) or from
// arbitrary weights (Weighted). Range, Possibly and Definitely decide
// every one of them; RangeTracker is the streamed counterpart of Range.
package relsum

import (
	"errors"
	"fmt"
)

// ErrNotUnitStep indicates a variable that changes by more than one at
// some event, outside the scope of the polynomial equality detectors.
var ErrNotUnitStep = errors.New("relsum: variable changes by more than one at an event")

// Relop is a relational operator.
type Relop int

const (
	// Lt is <.
	Lt Relop = iota + 1
	// Le is <=.
	Le
	// Eq is =.
	Eq
	// Ge is >=.
	Ge
	// Gt is >.
	Gt
	// Ne is !=.
	Ne
)

// String renders the operator.
func (r Relop) String() string {
	switch r {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "=="
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("relop(%d)", int(r))
	}
}

// ParseRelop parses "<", "<=", "==", "=", ">=", ">", "!=".
func ParseRelop(s string) (Relop, error) {
	switch s {
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case "=", "==":
		return Eq, nil
	case ">=":
		return Ge, nil
	case ">":
		return Gt, nil
	case "!=":
		return Ne, nil
	default:
		return 0, fmt.Errorf("relsum: unknown relational operator %q", s)
	}
}

// Eval applies the operator.
func (r Relop) Eval(s, k int64) bool {
	switch r {
	case Lt:
		return s < k
	case Le:
		return s <= k
	case Eq:
		return s == k
	case Ge:
		return s >= k
	case Gt:
		return s > k
	case Ne:
		return s != k
	default:
		return false
	}
}

// Attainable reports whether a quantity ranging over exactly [min, max]
// on the consistent cuts satisfies "quantity relop k" at one of them:
// the Theorem 7(1) range decision. The order operators and != need only
// the extrema; == also needs every integer in [min, max] attained, which
// holds for unit-step quantities (Theorem 4), so callers deciding ==
// check unit steps first.
func (r Relop) Attainable(min, max, k int64) bool {
	switch r {
	case Lt:
		return min < k
	case Le:
		return min <= k
	case Ge:
		return max >= k
	case Gt:
		return max > k
	case Ne:
		return min != k || max != k
	case Eq:
		return min <= k && k <= max
	default:
		return false
	}
}
