package relsum

import (
	"fmt"
	"strconv"

	"github.com/distributed-predicates/gpd/internal/computation"
)

// Weight assigns to each non-initial event the change it causes to some
// global quantity (see Weighted).
type Weight func(computation.Event) int64

// Quantity is an ideal sum over a sealed computation: its value at a
// consistent cut is a base (its value at the initial cut) plus the
// weights of the cut's non-initial events. It keeps per-process prefix
// sums of the weights, so its value at a cut costs one lookup per
// process.
type Quantity struct {
	c      *computation.Computation
	name   string    // what the quantity measures, for unit-step errors
	base   int64     // value at the initial cut
	prefix [][]int64 // prefix[p][i]: weights of events 1..i of process p
}

// Var is the sum of the named per-process variable: based at the
// initial values, each event weighing the change it makes to its
// process's variable.
func Var(c *computation.Computation, name string) Quantity {
	return ofStates(c, strconv.Quote(name), func(e computation.Event) int64 { return c.Var(name, e.ID) })
}

// InFlight is channel occupancy: the number of messages sent but not yet
// received. It starts at zero; each event weighs its sends minus its
// receives (an event may carry several messages in either direction).
func InFlight(c *computation.Computation) Quantity {
	delta := make([]int64, c.NumEvents())
	for _, m := range c.Messages() {
		delta[int(m.Send)]++
		delta[int(m.Receive)]--
	}
	return newQuantity(c, "inflight", 0, func(e computation.Event) int64 { return delta[int(e.ID)] })
}

// Count is the number of processes whose boolean variable is true, with
// truth giving the variable at the state following each event (initial
// events included). A boolean flips by at most one per event, so the
// count is always unit-step.
func Count(c *computation.Computation, truth func(computation.Event) bool) Quantity {
	return ofStates(c, "count", func(e computation.Event) int64 {
		if truth(e) {
			return 1
		}
		return 0
	})
}

// Weighted is the quantity base plus the summed weights w of a cut's
// non-initial events. Variable sums and channel occupancy are instances
// (see Var and InFlight).
func Weighted(c *computation.Computation, base int64, w Weight) Quantity {
	return newQuantity(c, "the weighted quantity", base, w)
}

// ofStates builds the sum over the processes of a per-process state
// value, given at the state following each event.
func ofStates(c *computation.Computation, name string, val func(computation.Event) int64) Quantity {
	q := Quantity{c: c, name: name, prefix: make([][]int64, c.NumProcs())}
	for p := range q.prefix {
		init := val(c.Initial(computation.ProcID(p)))
		q.base += init
		row := make([]int64, c.Len(computation.ProcID(p)))
		for i := 1; i < len(row); i++ {
			row[i] = val(c.EventAt(computation.ProcID(p), i)) - init
		}
		q.prefix[p] = row
	}
	return q
}

// newQuantity builds a quantity from its base and per-event weights.
func newQuantity(c *computation.Computation, name string, base int64, w Weight) Quantity {
	q := Quantity{c: c, name: name, base: base, prefix: make([][]int64, c.NumProcs())}
	for p := range q.prefix {
		row := make([]int64, c.Len(computation.ProcID(p)))
		for i := 1; i < len(row); i++ {
			row[i] = row[i-1] + w(c.EventAt(computation.ProcID(p), i))
		}
		q.prefix[p] = row
	}
	return q
}

// At returns the quantity's value at a cut.
func (q Quantity) At(k computation.Cut) int64 {
	v := q.base
	for p, i := range k {
		v += q.prefix[p][i]
	}
	return v
}

// Weight returns the change the event makes to the quantity (zero for
// initial events, which every cut contains).
func (q Quantity) Weight(e computation.Event) int64 {
	if e.IsInitial() {
		return 0
	}
	row := q.prefix[int(e.Proc)]
	return row[e.Index] - row[e.Index-1]
}

// ValidateUnitStep returns ErrNotUnitStep, wrapped with the first event
// and the step it takes, unless every event changes the quantity by at
// most one.
func (q Quantity) ValidateUnitStep() error {
	var err error
	q.c.Events(func(e computation.Event) bool {
		if d := q.Weight(e); d > 1 || d < -1 {
			err = fmt.Errorf("%w: event %v changes %s by %d", ErrNotUnitStep, e, q.name, d)
			return false
		}
		return true
	})
	return err
}

// Attain returns a consistent cut at which the quantity equals v, if
// one lies on the lattice path from the initial cut through b.ArgMin to
// the final cut, or on the one through b.ArgMax. Along a path the
// quantity moves by one event's weight per step, so on a unit-step
// quantity it takes every value between the path's extremes (Theorem 4):
// the first path covers [b.Min, final value], the second [final value,
// b.Max], and every v in [b.Min, b.Max] is found.
func (q Quantity) Attain(b Bounds, v int64) (computation.Cut, bool) {
	if cut, ok := q.scan(b.ArgMin, v); ok {
		return cut, true
	}
	return q.scan(b.ArgMax, v)
}

// scan walks the lattice path initial -> via -> final, starting from the
// quantity's base, and returns the first cut where it equals v.
func (q Quantity) scan(via computation.Cut, v int64) (computation.Cut, bool) {
	c := q.c
	cur, val := c.InitialCut(), q.base
	if val == v {
		return cur, true
	}
	for _, target := range []computation.Cut{via, c.FinalCut()} {
		for !cur.Equal(target) {
			advanced := false
			for _, id := range c.Enabled(cur) {
				e := c.Event(id)
				if e.Index <= target[int(e.Proc)] {
					cur = c.Execute(cur, e.Proc)
					val += q.Weight(e)
					advanced = true
					break
				}
			}
			if !advanced {
				// target not reachable monotonically (cannot happen
				// for targets that are consistent cuts above cur).
				return nil, false
			}
			if val == v {
				return cur, true
			}
		}
	}
	return nil, false
}
