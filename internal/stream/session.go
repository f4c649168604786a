package stream

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// sessionPred is the reserved registration id of the predicate a
// session is opened with (Spec.Pred). Register frames may not use it.
const sessionPred = "_session"

// Session is one monitored application instance: it ingests that
// application's timestamped events, re-establishes causal order once in
// a mux.Group, and steps the detectors registered on that group. Every
// session has the same shape:
//
//   - Each predicate is a registration. An open with Spec.Pred is an
//     open plus one all-events registration with id "_session": its
//     detector steps on every event under raw timestamps, but only an
//     event tagged with its variable, or untagged, moves its payload
//     (in its slice and retained trace too); its failure fails the
//     session. Predicates registered later are stepped only
//     on the events their relevance set touches, under projected
//     timestamps (events must tag the variable they update, Event.Var),
//     and a failure fails only that predicate's update stream.
//   - Possibly reports whether ANY registration has latched; the
//     per-registration verdicts fan out as sequence-numbered updates.
//   - Close decides Definitely for the open predicate: from its slice
//     (Spec.Slice) or from the retained trace (Spec.Retain).
//
// A Session is confined to one goroutine (the engine gives each session
// to exactly one shard worker); it is not safe for concurrent use.
type Session struct {
	spec  Spec
	kind  string     // stats label: the open predicate's family, "mux" without one
	group *mux.Group // causal delivery + routing, owns the detectors
	err   error      // sticky failure; the session is dead once set

	retained []Event // full delivered trace when spec.Retain
	possibly bool    // latched verdict as of the last Flush or registration
	flushes  int
}

// NewSession validates the spec and builds the session. An open
// predicate (Spec.Pred) is registered through the same path a register
// frame takes; families without an incremental detector (cnf) are
// rejected there — they need the sealed computation and cannot stream.
func NewSession(spec Spec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		spec:  spec,
		kind:  "mux",
		group: mux.NewGroup(spec.Procs),
	}
	if spec.Retain {
		s.group.OnDeliver(func(ev Event) { s.retained = append(s.retained, ev) })
	}
	if spec.Pred == "" {
		return s, nil
	}
	r, err := RegisterSpec{ID: sessionPred, Tenant: spec.Tenant, Pred: spec.Pred,
		Involved: spec.Involved, Init: spec.Init, Slice: spec.Slice}.registration()
	if err != nil {
		return nil, err
	}
	r.AllEvents = true
	if err := s.register(r); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	s.kind = r.Spec.Family.String()
	return s, nil
}

// KindLabel names the session for stats surfaces: the family of the
// open predicate, "mux" for a session opened without one.
func (s *Session) KindLabel() string { return s.kind }

// Register attaches a predicate to the session. The predicate observes
// the stream from the registration cut onward; its variable is seeded
// with the last delivered values unless Init is given. The id
// "_session" is reserved for the open predicate.
func (s *Session) Register(r mux.Registration) error {
	if s.err != nil {
		return s.err
	}
	if r.ID == sessionPred {
		return fmt.Errorf("stream: predicate id %q is reserved for the predicate the session was opened with", r.ID)
	}
	r.AllEvents = false
	return s.register(r)
}

// register attaches a registration to the group; a satisfied
// registration cut latches the session verdict immediately.
func (s *Session) register(r mux.Registration) error {
	if err := s.group.Register(r); err != nil {
		return err
	}
	if s.group.Possibly(r.ID) {
		s.possibly = true
	}
	return nil
}

// Unregister detaches a registered predicate. The open predicate stays
// until close.
func (s *Session) Unregister(id string) error {
	if id == sessionPred {
		return fmt.Errorf("stream: predicate %q is the predicate the session was opened with; close the session instead", id)
	}
	return s.group.Unregister(id)
}

// Updates drains the verdict updates queued since the last call:
// sequence-numbered per predicate, one entry per latch or per-predicate
// failure.
func (s *Session) Updates() []mux.Update { return s.group.Drain() }

// PredicateStates reports the current state of every registered
// predicate (the close-time fan-out).
func (s *Session) PredicateStates() []mux.Update { return s.group.States() }

// MuxStats returns the group's multiplexing counters.
func (s *Session) MuxStats() mux.Stats { return s.group.Stats() }

// OnCost installs the per-predicate step-cost hook on the underlying
// group: invoked at every flush with each stepped predicate's step
// delta, keyed by tenant, family and registration id. The engine feeds
// the cost ledger through it.
func (s *Session) OnCost(fn func(tenant, family, id string, steps int64)) { s.group.OnCost(fn) }

// Tenants returns the per-tenant registered-predicate counts.
func (s *Session) Tenants() map[string]int { return s.group.Tenants() }

// Step ingests one event. Events of one process must arrive in local
// order; arbitrary interleaving (even causal reordering) across processes
// is handled by the holdback buffer. Returns the session's sticky error,
// if any: the group's (delivery, the open predicate's detector, slice
// maintenance) or a MaxWindow breach of the holdback or, as of the last
// flush, of the detector window. A registered predicate's failure is
// not a session error — it surfaces in that predicate's update stream.
//
//lint:hotpath
func (s *Session) Step(ev Event) error {
	if s.err != nil {
		return s.err
	}
	if err := s.group.Step(ev); err != nil {
		return s.fail(err)
	}
	if s.spec.MaxWindow > 0 && s.group.Holdback() > s.spec.MaxWindow {
		return s.fail(fmt.Errorf("stream: holdback exceeds max window %d (gap in the stream?)", s.spec.MaxWindow))
	}
	return nil
}

// fail latches the session error.
func (s *Session) fail(err error) error {
	s.err = err
	return err
}

// Flush advances every detector stepped since the last flush (one
// elimination sweep or closure recomputation per detector, however many
// events arrived), prunes detector windows and projections below the
// delivered frontier, and returns the latched Possibly verdict: whether
// ANY registered predicate has latched. The detector windows are
// refreshed here, so this is where a MaxWindow breach of the summed
// window fails the session.
func (s *Session) Flush() bool {
	if s.err != nil {
		return s.possibly
	}
	s.flushes++
	if s.group.Flush() {
		s.possibly = true
	}
	if w := s.group.Window(); s.spec.MaxWindow > 0 && w > s.spec.MaxWindow {
		s.fail(fmt.Errorf("stream: detector window %d exceeds max window %d (a process is silent?)", w, s.spec.MaxWindow))
	}
	return s.possibly
}

// Possibly returns the latched verdict as of the last Flush.
func (s *Session) Possibly() bool { return s.possibly }

// Err returns the session's sticky error, if any.
func (s *Session) Err() error { return s.err }

// Delivered returns the total number of causally delivered events.
func (s *Session) Delivered() int64 { return s.group.Delivered() }

// Holdback returns the number of buffered undeliverable events.
func (s *Session) Holdback() int { return s.group.Holdback() }

// Window returns the summed detector windows as of the last Flush.
func (s *Session) Window() int { return s.group.Window() }

// Flushes returns the number of detector flushes performed.
func (s *Session) Flushes() int { return s.flushes }

// SliceRetained returns the events currently held in the slicers'
// frontiers — the window a sliced session keeps instead of the trace.
func (s *Session) SliceRetained() int { return s.group.SliceRetained() }

// SliceCompacted returns the cumulative events freed by slice
// compaction.
func (s *Session) SliceCompacted() int64 { return s.group.SliceCompacted() }

// RetainedEvents reports the session's held history, whatever form it
// takes: the frontiers of its sliced registrations plus the full
// delivered trace of a retaining session. The engine's retained-events
// SLO watches this.
func (s *Session) RetainedEvents() int {
	return s.group.SliceRetained() + len(s.retained)
}

// Finalize seals the stream: it flushes the detectors, verifies the
// stream was gapless, seals the slicers, and decides Definitely for the
// open predicate when it can — from its slice (Spec.Slice) or, when the
// trace was retained, by rebuilding the computation (detect.Rebuild)
// and running the family's batch Definitely route sequentially. The
// Possibly verdict in the returned Verdict is exact for the complete
// computation.
func (s *Session) Finalize() (Verdict, error) {
	return s.FinalizeTraced(nil)
}

// FinalizeTraced is Finalize with the close-time work accounted into the
// trace: the rebuild size and the full work counters of the offline
// Definitely detectors (region cuts explored, interval eliminations, ...).
// The close-time Definitely rebuild is the most expensive step a session
// ever runs (worst-case exponential); the engine routes these counters
// into the metrics registry.
func (s *Session) FinalizeTraced(tr *obs.Trace) (Verdict, error) {
	doneAll := tr.Span("stream.finalize")
	defer doneAll()
	s.Flush()
	v := Verdict{Possibly: s.possibly}
	if s.err != nil {
		return v, s.err
	}
	if hb := s.group.Holdback(); hb > 0 {
		return v, s.fail(fmt.Errorf("stream: %d events undeliverable at close (gaps in the stream)", hb))
	}
	if s.spec.Slice {
		return s.finalizeSliced(v, tr)
	}
	// Sealing runs the slicers' final compaction, so the engine's
	// retained gauge walks back to zero at close.
	s.group.SealSlicers()
	if !s.spec.Retain {
		return v, nil
	}
	ps, err := s.spec.Canonical()
	if err != nil {
		return v, s.fail(err)
	}
	doneRebuild := tr.Span("stream.rebuild")
	cfg := detect.Config{Procs: s.spec.Procs, Involved: s.spec.Involved, Init: s.spec.Init}
	c, ds, err := detect.Rebuild(s.retained, ps, cfg)
	doneRebuild()
	if err != nil {
		return v, s.fail(fmt.Errorf("stream: %w", err))
	}
	tr.Add("stream.rebuilt_events", int64(c.NumEvents()))
	def, err := detect.Batch(c, ds, detect.ModalityDefinitely, detect.Options{Parallelism: 1}, tr)
	if err != nil {
		return v, s.fail(fmt.Errorf("stream: %w", err))
	}
	v.Definitely, v.DefinitelyKnown = def.Holds, true
	return v, nil
}

// finalizeSliced seals the session's incremental slice and answers
// from it. The frontier size is captured before the seal (the seal's
// final compaction drops everything — the stream is over). The sealed
// slice decides Definitely in two of three outcomes with no retained
// trace: an empty slice means no consistent cut ever satisfied the
// predicate (Definitely false), and a slice whose bottom is the initial
// cut or whose top is the final cut holds a satisfying cut every run
// passes through (Definitely true). In between, Definitely needs the
// full trace the session chose not to keep. The slicer's own verdict
// doubles as a cross-check against the token checker; a mismatch is a
// detector bug and kills the session rather than ship a wrong answer.
func (s *Session) finalizeSliced(v Verdict, tr *obs.Trace) (Verdict, error) {
	sl := s.group.Slicer("")
	if sl == nil {
		return v, s.fail(fmt.Errorf("stream: sliced session has no slicer attached"))
	}
	v.SliceRetained = s.group.SliceRetained()
	s.group.SealSlicers()
	v.SliceCompacted = s.group.SliceCompacted()
	tr.Add("stream.slice_retained", int64(v.SliceRetained))
	tr.Add("stream.slice_compacted", v.SliceCompacted)
	open := s.group.Possibly(sessionPred)
	if sl.Possibly() != open {
		return v, s.fail(fmt.Errorf("stream: slice verdict %v disagrees with detector verdict %v", sl.Possibly(), open))
	}
	if !open {
		v.Definitely, v.DefinitelyKnown = false, true
		return v, nil
	}
	bottom, top := sl.Bottom(), sl.Top()
	atInitial, atFinal := true, true
	for p := 0; p < s.spec.Procs; p++ {
		atInitial = atInitial && bottom[p] == 0
		atFinal = atFinal && int64(top[p]) == s.group.DeliveredOn(p)
	}
	if atInitial || atFinal {
		v.Definitely, v.DefinitelyKnown = true, true
	}
	return v, nil
}
