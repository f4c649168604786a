package detect

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// The two directions between a sealed computation and the delivered
// event stream an instrumented application produces, both keyed by the
// family's payload: LinearizeEvents and linearize replay a computation
// as a stream (StrategyReplay, the agreement tests), Rebuild turns a
// complete stream back into a computation (close-time Definitely of
// retaining sessions and of StrategyReplay).

// clockToVC converts a sealed computation's timestamp (which counts
// initial events) to the online vector-clock convention (which has no
// initial events): component q drops the initial event when present.
func clockToVC(clk []int32) []int64 {
	vc := make([]int64, len(clk))
	for q, v := range clk {
		if v >= 1 {
			vc[q] = int64(v) - 1
		}
	}
	return vc
}

// LinearizeEvents replays the non-initial events of a sealed
// computation in topological order, filling each event's payload via
// fill. Detectors re-establish causal order themselves behind a
// transport's holdback buffer, so any causality-respecting permutation
// of the result is also a valid stream.
func LinearizeEvents(c *computation.Computation, fill func(e computation.Event, ev *Event)) []Event {
	var out []Event
	for _, id := range c.Topo() {
		e := c.Event(id)
		if e.IsInitial() {
			continue
		}
		ev := Event{Proc: int(e.Proc), VC: clockToVC(c.Clock(id))}
		if fill != nil {
			fill(e, &ev)
		}
		out = append(out, ev)
	}
	return out
}

// linearize replays a sealed computation as the family's stream, plus
// the detector configuration matching it: the named variable's value
// after each event (sum) or the named 0/1 variable as Truth flags (all,
// count, xor, levels), each with the initial values in the config, or
// each event's sends − receives (inflight, which has no initial
// values).
func linearize(c *computation.Computation, s pred.Spec) ([]Event, Config) {
	cfg := Config{Procs: c.NumProcs()}
	var fill func(e computation.Event, ev *Event)
	switch payloadOf(s.Family) {
	case PayloadDelta:
		q := relsum.InFlight(c)
		return LinearizeEvents(c, func(e computation.Event, ev *Event) { ev.Val = q.Weight(e) }), cfg
	case PayloadTruth:
		truth := varTruth(c, s.Var)
		fill = func(e computation.Event, ev *Event) { ev.Truth = truth(e) }
	default:
		fill = func(e computation.Event, ev *Event) { ev.Val = c.Var(s.Var, e.ID) }
	}
	cfg.Init = make([]int64, c.NumProcs())
	for p := range cfg.Init {
		var ev Event // the initial state, read through the same payload
		fill(c.Initial(computation.ProcID(p)), &ev)
		cfg.Init[p] = ev.Val
		if ev.Truth {
			cfg.Init[p] = 1
		}
	}
	return LinearizeEvents(c, fill), cfg
}

// Rebuild reconstructs the sealed computation a complete delivered
// stream describes, with the spec that decides the stream's predicate
// on it. events must be gapless and in a causality-respecting order
// (a session's delivery order, or a linearization); cfg is the
// configuration the stream's detector was built with.
//
// Each process gets an initial event plus its delivered events, with
// order edges derived from the timestamps: for each event and each
// other process, an edge from the latest event of that process in its
// causal past (their transitive closure is exactly the happened-before
// relation the timestamps encode). The payload is stored as the spec's
// variable:
//
//   - value and truth payloads store the value after each event, with
//     cfg.Init on the initial states; processes outside a conjunction's
//     Involved read true in every state;
//   - delta payloads (inflight) store each process's running sum of its
//     deltas, starting at zero. Channel occupancy at a consistent cut is
//     the sum of those running sums, so the returned spec decides it as
//     sum(inflight) with the same relation.
//
// Only events that read the spec's variable (Event.Reads; inflight's
// variable is InFlightVar) move the payload; an event tagged with
// another variable keeps its process's value, so the trace of a session
// that also carries other variables' events rebuilds the same
// computation for this one.
func Rebuild(events []Event, s pred.Spec, cfg Config) (*computation.Computation, pred.Spec, error) {
	payload := payloadOf(s.Family)
	if payload == PayloadNone {
		return nil, pred.Spec{}, fmt.Errorf("detect: %v has no streamed payload to rebuild", s.Family)
	}
	if payload == PayloadDelta {
		s = pred.Spec{Family: pred.Sum, Var: InFlightVar, Rel: s.Rel, K: s.K}
	}
	fixed := make([]bool, cfg.Procs) // reads true in every state
	if s.Family == pred.Conjunctive && len(cfg.Involved) > 0 {
		for p := range fixed {
			fixed[p] = true
		}
		for _, p := range cfg.Involved {
			fixed[p] = false
		}
	}
	n := make([]int64, cfg.Procs)
	for _, ev := range events {
		n[ev.Proc] = max(n[ev.Proc], ev.VC[ev.Proc])
	}
	c := computation.New()
	run := make([]int64, cfg.Procs) // per-process value after the last event
	for p := 0; p < cfg.Procs; p++ {
		id := c.AddProcess() // creates the initial event at index 0
		for i := int64(1); i <= n[p]; i++ {
			c.AddInternal(id)
		}
		if p < len(cfg.Init) && payload != PayloadDelta {
			run[p] = cfg.Init[p]
		}
		if payload == PayloadTruth && (run[p] != 0 || fixed[p]) {
			run[p] = 1
		}
		c.SetVar(s.Var, c.Initial(id).ID, run[p])
	}
	for _, ev := range events {
		p := ev.Proc
		to := c.EventAt(computation.ProcID(p), int(ev.VC[p])).ID
		for q, v := range ev.VC {
			if q != p && v >= 1 {
				from := c.EventAt(computation.ProcID(q), int(v)).ID
				if err := c.AddEdge(from, to); err != nil {
					return nil, pred.Spec{}, fmt.Errorf("detect: rebuild edge: %w", err)
				}
			}
		}
		switch {
		case !ev.Reads(s.Var): // another variable's event: the value carries over
		case payload == PayloadDelta:
			run[p] += ev.Val
		case payload == PayloadTruth:
			run[p] = 0
			if ev.Truth || fixed[p] {
				run[p] = 1
			}
		default:
			run[p] = ev.Val
		}
		c.SetVar(s.Var, to, run[p])
	}
	if err := c.Seal(); err != nil {
		return nil, pred.Spec{}, fmt.Errorf("detect: rebuild: %w", err)
	}
	return c, s, nil
}
