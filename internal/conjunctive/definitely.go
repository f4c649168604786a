package conjunctive

import (
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Definitely detection for conjunctive predicates, following Garg &
// Waldecker's strong-predicate technique ("Detection of strong unstable
// predicates in distributed programs"): the conjunction DEFINITELY holds —
// every run passes through a state where all local predicates are true —
// iff there is a selection of one true INTERVAL per involved process such
// that the start of every interval happened-before the end of every other.
//
// An interval is a maximal run of consecutive true states on one process,
// described by its starting event lo (the event that makes the predicate
// true) and its ending event end (the first event that makes it false
// again; absent when the interval runs to the end of the process). In a
// single run, all intervals share a moment iff every lo is scheduled
// before every end; that holds in EVERY run iff lo_p happened-before
// end_q for every pair — events are ordered in all linearizations exactly
// when they are causally ordered.
//
// The search over interval selections uses the same queue elimination as
// the weak detector: intervals of each process are naturally ordered, and
// when lo_p does not happen-before end_q, no interval of p (all of which
// start no earlier than the current head) can rescue q's current interval,
// so q's head is eliminated. Polynomial in the number of intervals.

// interval is one maximal true interval of a process.
type interval struct {
	lo  computation.EventID
	end computation.EventID // NoEvent when open-ended
}

// trueIntervals extracts the maximal true intervals of process p.
func trueIntervals(c *computation.Computation, p computation.ProcID, pred LocalPredicate) []interval {
	var out []interval
	var cur *interval
	for _, id := range c.ProcEvents(p) {
		if pred(c.Event(id)) {
			if cur == nil {
				cur = &interval{lo: id, end: computation.NoEvent}
			}
		} else {
			if cur != nil {
				cur.end = id
				out = append(out, *cur)
				cur = nil
			}
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// DetectDefinitely reports whether every run of the computation passes
// through a global state satisfying the conjunction of the local
// predicates. An empty map is trivially definite. Work counters
// accumulate into tr (nil is free): true intervals extracted and
// intervals eliminated during the selection search.
func DetectDefinitely(c *computation.Computation, locals map[computation.ProcID]LocalPredicate, tr *obs.Trace) bool {
	procs := make([]computation.ProcID, 0, len(locals))
	for p := range locals {
		procs = append(procs, p)
	}
	// Map iteration order is random; canonicalize so elimination order —
	// and with it the work counters — is a pure function of the input.
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var totalIntervals, eliminated int64
	defer func() {
		tr.Add("conjunctive.true_intervals", totalIntervals)
		tr.Add("conjunctive.intervals_eliminated", eliminated)
	}()
	queues := make([][]interval, len(procs))
	for i, p := range procs {
		queues[i] = trueIntervals(c, p, locals[p])
		totalIntervals += int64(len(queues[i]))
		if len(queues[i]) == 0 {
			return false
		}
	}
	cur := make([]int, len(procs))
	// holds reports the pair constraint: lo_i happened-before end_j (an
	// open-ended interval can never be scheduled to finish early).
	holds := func(i, j int) bool {
		lo := queues[i][cur[i]].lo
		end := queues[j][cur[j]].end
		return end == computation.NoEvent || c.Precedes(lo, end)
	}
	dirty := make([]int, len(procs))
	inDirty := make([]bool, len(procs))
	for i := range procs {
		dirty[i] = i
		inDirty[i] = true
	}
	push := func(i int) {
		if !inDirty[i] {
			dirty = append(dirty, i)
			inDirty[i] = true
		}
	}
	for len(dirty) > 0 {
		j := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		inDirty[j] = false
		for i := range procs {
			if i == j {
				continue
			}
			// Constraint lo_i -> end_j: advancing i only moves lo_i
			// later, so a violation dooms j's current interval.
			if !holds(i, j) {
				cur[j]++
				eliminated++
				if cur[j] >= len(queues[j]) {
					return false
				}
				// j changed: both j's own constraints and everyone
				// whose end_j-constraint was previously verified must
				// be rechecked against the new interval.
				for k := range procs {
					push(k)
				}
				break
			}
			// Symmetric constraint lo_j -> end_i.
			if !holds(j, i) {
				cur[i]++
				eliminated++
				if cur[i] >= len(queues[i]) {
					return false
				}
				for k := range procs {
					push(k)
				}
				break
			}
		}
	}
	return true
}
