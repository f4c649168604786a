// Package stream is the online serving subsystem: multi-tenant streaming
// predicate detection over vector-clock-timestamped event streams.
//
// A monitored application instance opens a Session and streams its
// events — every event, not just interesting ones, each carrying the
// vector timestamp produced by an online vclock.Clock. A session
// delivers events in causal order once (holding back out-of-order
// arrivals) in a mux.Group and steps the incremental detectors
// registered on it, resolved from the detector registry
// (internal/detect): any incremental-capable family the registry knows
// (conjunctive, sum, count, xor, levels, channel occupancy) streams here
// with no transport changes. Each predicate is a registration: the one
// an open may carry (Spec.Pred, registration "_session") and any number
// registered and unregistered mid-stream. A registration latches its
// Possibly verdict the moment some consistent cut of the observed prefix
// satisfies it. Memory stays bounded by pruning everything
// below the vector-clock frontier common to all processes, in the spirit
// of Chauhan et al., "A Distributed Abstraction Algorithm for Online
// Predicate Detection" (arXiv:1304.4326), with incremental maintenance
// following Mittal & Garg's slicing line of work (arXiv:cs/0303010).
//
// Engine shards sessions over a pool of workers with bounded, batched,
// backpressured mailboxes; Server exposes the engine over TCP with
// length-prefixed JSON frames. See the package's e2e tests for the full
// serving path.
package stream

import (
	"errors"
	"fmt"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Spec is the per-session predicate specification.
type Spec struct {
	// Pred is the predicate in the canonical grammar shared with
	// gpd.ParseSpec and gpddetect (e.g. "all(x)", "sum(x) == 5",
	// "inflight == 0"). Any incremental-capable family of the detector
	// registry is accepted. Required unless Mux is set. An open with
	// Pred is an open plus one registration with the reserved id
	// "_session", made on the shard inside the open: it steps on every
	// event under raw timestamps, reading the payload only of events
	// tagged with its variable or untagged, holds one tenant slot,
	// appears in the query and close fan-out, and its failure fails
	// the session.
	Pred string `json:"pred,omitempty"`
	// Procs is the number of processes in the monitored application.
	Procs int `json:"procs"`
	// Involved lists the processes carrying a local predicate
	// (conjunctive only; distinct, each in [0, Procs)); nil means all.
	// Checked by the session's mux group, the same check register
	// frames get.
	Involved []int `json:"involved,omitempty"`
	// Init gives the initial per-process variable values (sum: the
	// variable; boolean families — all, count, xor, levels: 0/1 truth).
	// nil means all zero/false; at most Procs values. The initial cut
	// counts like any other consistent cut: a predicate it satisfies
	// latches at open. Inflight takes none (occupancy starts at 0).
	Init []int64 `json:"init,omitempty"`
	// Retain keeps the full delivered trace so Close can also decide the
	// Definitely modality: the family's batch Definitely over the
	// computation rebuilt from the trace. Costs O(events) memory.
	Retain bool `json:"retain,omitempty"`
	// Slice swaps unbounded per-session history for the predicate's
	// incremental slice: the session maintains the join-irreducibles of
	// the satisfying sublattice online and retains only the compacting
	// frontier — O(slice) memory however long the stream runs. Regular
	// truth-payload predicate families only (all(var)); mutually
	// exclusive with Retain. At close the slice also decides Definitely
	// when it can: an empty slice is Definitely false, a slice bottoming
	// at the initial cut or topping at the final cut is Definitely true.
	Slice bool `json:"slice,omitempty"`
	// MaxWindow bounds retained-window and holdback sizes; a session
	// exceeding it fails rather than grow without bound (a silent or
	// partitioned process prevents frontier pruning). 0 means no bound.
	MaxWindow int `json:"max_window,omitempty"`
	// Mux marks an open that carries no predicate: every predicate
	// arrives later as a register frame. Register and unregister frames
	// work on any session; Mux only says the open itself registers
	// nothing. Mutually exclusive with Pred and the per-predicate fields
	// (Involved, Init, Retain, Slice).
	Mux bool `json:"mux,omitempty"`
	// Tenant names the session's owning tenant for cost attribution and
	// per-tenant metrics; "" means "default". It owns the session-level
	// resources (ingest, delivery, close-time finalization, wire bytes)
	// and the open predicate's tenant slot; predicates registered later
	// carry their own tenant (RegisterSpec.Tenant).
	Tenant string `json:"tenant,omitempty"`
}

// errNoPred answers an open that names no predicate and is not marked
// Mux.
var errNoPred = errors.New(`stream: spec has no "pred"; the numeric "kind" selector was removed, so give the predicate as a grammar string (e.g. "pred":"all(x)")`)

// Canonical parses the spec's Pred grammar string into the canonical
// predicate specification shared with gpd.Detect and gpddetect
// (internal/pred). Stream-transport fields (Procs, Retain, MaxWindow)
// have no counterpart in the canonical spec and are validated by
// Validate; the per-predicate fields (Involved, Init, Slice) are
// checked by the registration, in mux.Group.Register.
func (sp Spec) Canonical() (pred.Spec, error) {
	if sp.Pred == "" {
		return pred.Spec{}, errNoPred
	}
	ps, err := pred.Parse(sp.Pred)
	if err != nil {
		return pred.Spec{}, fmt.Errorf("stream: %w", err)
	}
	return ps, nil
}

// Validate checks the spec's transport fields. Everything about the
// predicate itself (grammar, shape, involved processes, initial values,
// slice capability) is checked on the path every registration takes —
// the grammar parse, then mux.Group.Register — so opens and register
// frames cannot drift apart.
func (sp Spec) Validate() error {
	if sp.Procs < 1 {
		return fmt.Errorf("stream: spec needs procs >= 1, got %d", sp.Procs)
	}
	if sp.MaxWindow < 0 {
		return fmt.Errorf("stream: negative max window %d", sp.MaxWindow)
	}
	if sp.Retain && sp.Slice {
		return fmt.Errorf("stream: slice and retain are mutually exclusive; the slice frontier replaces retained history")
	}
	if !sp.Mux {
		if sp.Pred == "" {
			return errNoPred
		}
		return nil
	}
	if sp.Pred != "" {
		return fmt.Errorf("stream: mux sessions carry no fixed predicate; register predicates instead")
	}
	if len(sp.Involved) > 0 || len(sp.Init) > 0 || sp.Retain || sp.Slice {
		return fmt.Errorf("stream: mux sessions take per-predicate options at register time, not in the spec")
	}
	return nil
}

// Event is one timestamped event of the monitored application. VC is the
// vector timestamp produced by the process's online clock (component p =
// number of events of process p in the causal past, inclusive). Events of
// one process must be appended in local order; interleaving across
// processes is arbitrary — sessions re-establish causal order. It is the
// detector kernel's event type, so sessions hand events straight to their
// detector with no conversion.
type Event = detect.Event

// Verdict is a session's detection outcome.
type Verdict struct {
	// Possibly reports whether some consistent cut of the streamed
	// computation satisfies the predicate. Latched: exact at Close, and
	// already-true verdicts mid-stream are final.
	Possibly bool `json:"possibly"`
	// Definitely reports whether every run passes through a satisfying
	// cut; only meaningful when DefinitelyKnown.
	Definitely bool `json:"definitely,omitempty"`
	// DefinitelyKnown is set when the session retained the trace and
	// ran the offline Definitely detector at Close — or when a sliced
	// session's sealed slice decided it (an empty slice is Definitely
	// false; a slice bottoming at the initial cut or topping at the
	// final cut is Definitely true).
	DefinitelyKnown bool `json:"definitely_known,omitempty"`
	// SliceRetained is the slice frontier size at close (sliced
	// sessions only): the ceiling of what the session ever had to keep.
	SliceRetained int `json:"slice_retained,omitempty"`
	// SliceCompacted is the total events freed by slice compaction over
	// the session's lifetime — the history a retaining session would
	// have held.
	SliceCompacted int64 `json:"slice_compacted,omitempty"`
}
