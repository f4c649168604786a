package mux

// Shared per-variable incremental slicers: a group whose predicates are
// regular can swap unbounded history for the slice frontier. Every
// delivered event is observed by every attached slicer — the slicer
// needs each process's full local order to keep its clocks aligned —
// but the truth it records is relevance-filtered: only events tagged
// with the slicer's variable (or untagged, for the slicer of an
// all-events registration) move the predicate's truth, everything else
// carries the process's last value forward. Predicates on the same
// variable share one slicer, so the retained frontier is paid once per
// variable, not once per predicate.

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// groupSlicer is one shared incremental slicer and its truth-routing
// state.
type groupSlicer struct {
	sl       *slicing.IncrementalSlicer
	routeVar string // "" for the slicer of an all-events registration
	v        string // the variable whose truth it records
	involved []bool // nil = every process carries a conjunct
	initial  []bool // the variable's initial truth per process
	last     []bool // carried-forward truth per process
	refs     int    // predicates sharing this slicer
}

// observe feeds one causally delivered event into the slicer under the
// relevance filter.
func (gs *groupSlicer) observe(ev detect.Event) error {
	truth := gs.last[ev.Proc]
	if ev.Var == gs.v || (gs.routeVar == "" && ev.Reads(gs.v)) {
		truth = ev.Truth
		gs.last[ev.Proc] = truth
	}
	if gs.involved != nil && !gs.involved[ev.Proc] {
		truth = true // uninvolved processes hold no conjunct
	}
	return gs.sl.Observe(ev.Proc, ev.VC, truth)
}

// involvedSet checks a registration's involved-process list and
// normalizes it to a boolean vector; nil (all processes) stays nil.
// Only conjunctions read it, so any other family that names processes
// is rejected rather than silently stepped on all of them.
func involvedSet(involved []int, f pred.Family, procs int) ([]bool, error) {
	if len(involved) == 0 {
		return nil, nil
	}
	if f != pred.Conjunctive {
		return nil, fmt.Errorf("involved processes apply only to conjunctive predicates, not %v", f)
	}
	set := make([]bool, procs)
	for _, p := range involved {
		if p < 0 || p >= procs {
			return nil, fmt.Errorf("involved process %d out of range [0,%d)", p, procs)
		}
		if set[p] {
			return nil, fmt.Errorf("involved process %d listed twice", p)
		}
		set[p] = true
	}
	if len(involved) == procs {
		return nil, nil
	}
	return set, nil
}

func sameBools(a, b []bool) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AttachSlicer attaches (or takes another reference on) the shared
// incremental slicer for one variable. The slicer must see the stream
// from its start — each process's full local order is what keeps its
// clocks aligned — so attachment is only legal before any event has
// arrived. routeVar keys the slicer ("" for an all-events registration,
// which also records untagged events), v is the variable whose truth it
// records, involved is the involved-process set (nil = all) and init
// the initial values (nil = all false); predicates sharing a variable
// must agree on both, and a second attachment that differs is rejected
// rather than silently widened.
func (g *Group) AttachSlicer(routeVar, v string, involved []bool, init []int64) error {
	if g.delivery.Delivered() > 0 || g.delivery.Holdback() > 0 {
		return fmt.Errorf("mux: slicers attach before any events; %d already delivered", g.delivery.Delivered())
	}
	truth := make([]bool, g.procs) // the variable's initial truth
	for p := range truth {
		truth[p] = p < len(init) && init[p] != 0
	}
	if gs := g.slicers[routeVar]; gs != nil {
		if !sameBools(gs.involved, involved) || !sameBools(gs.initial, truth) {
			return fmt.Errorf("mux: slicer for variable %q already attached with a different involved set or initial state", routeVar)
		}
		gs.refs++
		return nil
	}
	initial := make([]bool, g.procs) // the local predicates in the initial state
	for p := range initial {
		// Uninvolved processes are vacuously true from the start.
		initial[p] = truth[p] || (involved != nil && !involved[p])
	}
	if g.slicers == nil {
		g.slicers = make(map[string]*groupSlicer)
	}
	g.slicers[routeVar] = &groupSlicer{
		sl:       slicing.NewIncrementalSlicer(g.procs, initial),
		routeVar: routeVar,
		v:        v,
		involved: involved,
		initial:  truth,
		last:     append([]bool(nil), truth...),
		refs:     1,
	}
	return nil
}

// DetachSlicer drops one reference on a variable's shared slicer,
// freeing it when the last sharer detaches.
func (g *Group) DetachSlicer(routeVar string) {
	gs := g.slicers[routeVar]
	if gs == nil {
		return
	}
	gs.refs--
	if gs.refs <= 0 {
		delete(g.slicers, routeVar)
	}
}

// observeSlicers feeds one delivered event into every attached slicer.
// A failed observation (a clock the causal delivery should have made
// impossible) latches the group's sticky error.
func (g *Group) observeSlicers(ev detect.Event) {
	var failed error
	for _, gs := range g.slicers {
		if err := gs.observe(ev); err != nil && failed == nil {
			failed = err
		}
	}
	if failed != nil {
		g.delivery.Fail(fmt.Errorf("mux: slice maintenance: %w", failed))
	}
}

// compactSlicers runs one compaction pass over every attached slicer
// (the Flush-path compaction hook) and accounts the freed events.
func (g *Group) compactSlicers() {
	for _, gs := range g.slicers {
		g.sliceCompacted += gs.sl.Compact()
	}
}

// SealSlicers seals every attached slicer — the stream is complete, so
// stalled advancements become exclusions — and runs a final compaction.
func (g *Group) SealSlicers() {
	for _, gs := range g.slicers {
		gs.sl.Seal()
		g.sliceCompacted += gs.sl.Compact()
	}
}

// Slicer returns the shared incremental slicer attached for a variable
// (nil when none is).
func (g *Group) Slicer(routeVar string) *slicing.IncrementalSlicer {
	if gs := g.slicers[routeVar]; gs != nil {
		return gs.sl
	}
	return nil
}

// SliceRetained returns the events currently held across all attached
// slicers — the frontier a sliced session retains instead of history.
func (g *Group) SliceRetained() int {
	n := 0
	for _, gs := range g.slicers {
		n += gs.sl.Retained()
	}
	return n
}

// SliceCompacted returns the cumulative events freed by slice
// compaction across all slicers the group has ever run.
func (g *Group) SliceCompacted() int64 { return g.sliceCompacted }
