package relsum

import (
	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Incremental (online) tracking of the sum range. A RangeTracker consumes
// the events of a computation one at a time, in any order consistent with
// causality (every event arrives after all of its causal predecessors),
// and maintains the exact minimum and maximum of S over every consistent
// cut of the prefix observed so far. It is the streaming counterpart of
// Range, in the spirit of Chauhan et al., "A Distributed Abstraction
// Algorithm for Online Predicate Detection" (arXiv:1304.4326).
//
// Memory is bounded by pruning: once a downward-closed set of events P is
// known to lie below every event that can still arrive (the caller derives
// P from the vector-clock frontier: P is contained in the causal past of
// the latest delivered event of EVERY process), those events can be folded
// into a scalar baseline and dropped. Correctness of the fold:
//
//   - cuts that do not contain P contain no event delivered after the
//     prune (any such event f has P ⊆ past(f)), so they are cuts of the
//     pre-prune prefix and were covered by the flush the prune performs;
//   - cuts that do contain P are exactly P ∪ I for an ideal I of the
//     retained window, and their sum is baseline + weight(I), which is
//     what post-prune flushes compute.
//
// The running extrema therefore latch the true prefix extrema at every
// Flush, and after the final event they equal Range of the complete
// computation. For unit-step variables, successive flush intervals share
// the sum of the pruned cut, so every integer in [Min, Max] is attained
// by some consistent cut (the intermediate-value property of Theorem 4
// lifted to the streaming setting) — which is what makes the tracker a
// sound and complete online detector for Possibly(S = k).

// RangeTracker maintains min/max of S over the consistent cuts of a
// growing computation prefix. Not safe for concurrent use.
type RangeTracker struct {
	baseline int64 // S at the pruned cut P
	min, max int64 // running extrema over every cut covered so far

	// Retained window, dense slots. Requirements are kept as the
	// (slot, required slot) pairs the closure reduction consumes.
	slots   map[int64]int // external event id -> slot
	ids     []int64       // slot -> external event id
	weights []int64       // slot -> per-event change of S
	reqs    [][2]int      // slot v requires slot u

	g     maxflow.Graph // closure arena, reused by every Flush
	remap []int         // Prune scratch: old slot -> new slot, -1 if dropped

	dirty bool       // events observed since the last Flush
	tr    *obs.Trace // optional work accounting (nil: free)
}

// SetTrace routes the tracker's closure work counters (augmenting paths,
// closure sizes) into the given trace. A nil trace disables accounting.
func (t *RangeTracker) SetTrace(tr *obs.Trace) { t.tr = tr }

// NewRangeTracker starts a tracker with the given baseline — the value of
// S at the initial cut (the sum of the per-process initial values).
func NewRangeTracker(baseline int64) *RangeTracker {
	return &RangeTracker{
		baseline: baseline,
		min:      baseline,
		max:      baseline,
		slots:    make(map[int64]int),
	}
}

// Observe adds one event to the window. id must be unique for the lifetime
// of the tracker; weight is the change of S caused by the event; requires
// lists the ids of events the event causally succeeds, enough of them
// that the rest follow transitively (its direct predecessors, or fewer
// when some are implied through the others). Predecessors that were
// already pruned are ignored (they are below every cut the tracker still
// forms); predecessors never observed are a caller bug and make the
// closure constraints incomplete. requires is not retained.
func (t *RangeTracker) Observe(id int64, weight int64, requires []int64) {
	if _, ok := t.slots[id]; ok {
		return // duplicate delivery: idempotent
	}
	slot := len(t.weights)
	t.slots[id] = slot
	t.ids = append(t.ids, id)
	t.weights = append(t.weights, weight)
	for _, r := range requires {
		if s, ok := t.slots[r]; ok {
			t.reqs = append(t.reqs, [2]int{slot, s})
		}
	}
	t.dirty = true
}

// Flush recomputes the extrema over the current window (two max-weight
// closure computations in the tracker's reused flow arena) and folds
// them into the running min/max. Cheap when nothing changed since the
// last call.
func (t *RangeTracker) Flush() (min, max int64) {
	if !t.dirty {
		return t.min, t.max
	}
	t.dirty = false
	if len(t.weights) == 0 {
		return t.min, t.max
	}
	best := t.g.Closure(t.weights, false, t.reqs, 1, nil, t.tr)
	if hi := t.baseline + best; hi > t.max {
		t.max = hi
	}
	worst := t.g.Closure(t.weights, true, t.reqs, 1, nil, t.tr)
	if lo := t.baseline - worst; lo < t.min {
		t.min = lo
	}
	return t.min, t.max
}

// Prune folds the given events into the baseline and drops them from the
// window. The set must be downward closed within the window, and the
// caller must guarantee that every event yet to be observed causally
// succeeds all of them (the vector-clock frontier argument above). Prune
// flushes first so no cut goes uncovered. Unknown ids are ignored; ids
// is not retained.
func (t *RangeTracker) Prune(ids []int64) {
	t.Flush()
	remap := append(t.remap[:0], make([]int, len(t.weights))...)
	t.remap = remap
	dropped := 0
	for _, id := range ids {
		if s, ok := t.slots[id]; ok && remap[s] == 0 {
			remap[s] = -1
			dropped++
		}
	}
	if dropped == 0 {
		return
	}
	kept := 0
	for s, w := range t.weights {
		if remap[s] < 0 {
			t.baseline += w
			delete(t.slots, t.ids[s])
			continue
		}
		remap[s] = kept
		t.ids[kept], t.weights[kept] = t.ids[s], w
		t.slots[t.ids[kept]] = kept
		kept++
	}
	t.ids, t.weights = t.ids[:kept], t.weights[:kept]
	// Requirements on a dropped event are satisfied by every cut the
	// tracker still forms; those of a dropped event go with it.
	reqs := t.reqs[:0]
	for _, r := range t.reqs {
		if v, u := remap[r[0]], remap[r[1]]; v >= 0 && u >= 0 {
			reqs = append(reqs, [2]int{v, u})
		}
	}
	t.reqs = reqs
}

// Range returns the running extrema as of the last Flush.
func (t *RangeTracker) Range() (min, max int64) { return t.min, t.max }

// Window returns the number of retained (unpruned) events.
func (t *RangeTracker) Window() int { return len(t.weights) }
