// Package detect is the detector kernel: one registry of predicate
// detectors, keyed by (family, modality), that backs every detection
// surface of the repository — the offline gpd.Detect front door, the
// streaming serving stack (internal/stream sessions), and the replay
// bridge between them.
//
// Each registry Entry binds a predicate family and modality to
//
//   - a Batch function running the family's offline algorithm on a
//     sealed computation (CPDHB for conjunctions, max-weight closures
//     for sums and channel occupancy, the sum decomposition for
//     symmetric predicates, the singular algorithms for CNF), and
//   - for incremental-capable families, a constructor for the online
//     Detector. The family's event payload keys the one linearizer
//     that replays a sealed computation as the delivered-event stream
//     an instrumented application would have produced, and Rebuild,
//     its inverse.
//
// A Detector consumes causally delivered events one at a time and
// latches a Possibly verdict as soon as some consistent cut of the
// observed prefix satisfies the predicate, in the spirit of Chauhan et
// al., "A Distributed Abstraction Algorithm for Online Predicate
// Detection" (arXiv:1304.4326). The Definitely modality of a complete
// stream has one route for every family: Rebuild turns the delivered
// events back into a sealed computation, and the family's batch
// Definitely decides on it.
//
// Adding a family costs one constructor and one registration (see the
// per-family files in this package); transports and the public API
// resolve through the registry and never switch on the family.
package detect

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Modality selects between the weak and strong interpretation of a
// predicate over a computation.
type Modality int

const (
	// ModalityPossibly asks whether SOME consistent cut satisfies the
	// predicate.
	ModalityPossibly Modality = iota + 1
	// ModalityDefinitely asks whether EVERY run passes through a
	// satisfying cut.
	ModalityDefinitely
)

// String names the modality.
func (m Modality) String() string {
	switch m {
	case ModalityPossibly:
		return "possibly"
	case ModalityDefinitely:
		return "definitely"
	default:
		return fmt.Sprintf("modality(%d)", int(m))
	}
}

// ParseModality parses "possibly" or "definitely".
func ParseModality(s string) (Modality, error) {
	switch s {
	case "possibly":
		return ModalityPossibly, nil
	case "definitely":
		return ModalityDefinitely, nil
	default:
		return 0, fmt.Errorf("detect: unknown modality %q", s)
	}
}

// Strategy selects how a detection run computes its answer.
type Strategy int

const (
	// StrategyBatch runs the family's offline algorithm on the sealed
	// computation (the default).
	StrategyBatch Strategy = iota + 1
	// StrategyReplay drives the family's incremental detector over a
	// causal linearization of the computation — the same state machine
	// the streaming server runs — and, under ModalityDefinitely, the
	// same close-time decision: batch Definitely over the computation
	// rebuilt from the delivered events. Available only for
	// incremental-capable families; cross-checkable against
	// StrategyBatch.
	StrategyReplay
	// StrategySlice computes the predicate's slice first — the exact
	// sublattice of satisfying cuts a regular predicate induces (Mittal
	// & Garg, "Computation slicing") — and decides from it, delegating
	// to the family's batch kernel only when the slice alone cannot
	// answer. Available only for sliceable (regular) families;
	// non-regular specs fail with an error wrapping
	// slicing.ErrNotRegular instead of silently degrading.
	StrategySlice
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyBatch:
		return "batch"
	case StrategyReplay:
		return "replay"
	case StrategySlice:
		return "slice"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Event is one causally delivered event of a monitored computation. VC
// is the vector timestamp produced by the process's online clock
// (component q = number of events of process q in the causal past,
// inclusive; initial states are not events). The payload field a
// family's detector consumes is declared by its Caps.Payload.
type Event struct {
	Proc  int     `json:"proc"`
	VC    []int64 `json:"vc"`
	Truth bool    `json:"truth,omitempty"` // PayloadTruth: the 0/1 variable
	Val   int64   `json:"val,omitempty"`   // PayloadValue / PayloadDelta
	// Var names the variable this event updates. Single-predicate
	// transports leave it empty (the session's one variable is implied);
	// multiplexed streams tag every event so the router can step only
	// the detectors that read the variable. Channel occupancy deltas are
	// tagged InFlightVar.
	Var string `json:"var,omitempty"`
}

// Reads reports whether the event moves variable v in a stream whose
// untagged events update v (the one variable of a single-predicate
// stream): it is tagged v or untagged. An event of another variable
// leaves v as it was on the event's process.
func (ev Event) Reads(v string) bool { return ev.Var == "" || ev.Var == v }

// InFlightVar is the reserved variable tag of channel-occupancy events
// in multiplexed streams — the same keyword the predicate grammar uses
// for the inflight family.
const InFlightVar = "inflight"

// Payload declares which Event field an incremental detector consumes,
// so transports can fill and rebuild traces without knowing the family.
type Payload int

const (
	// PayloadNone: the family has no incremental detector.
	PayloadNone Payload = iota
	// PayloadTruth: Event.Truth carries the process's 0/1 variable.
	PayloadTruth
	// PayloadValue: Event.Val carries the variable's value after the
	// event.
	PayloadValue
	// PayloadDelta: Event.Val carries the per-event change of the
	// tracked quantity (e.g. sends − receives for channel occupancy).
	PayloadDelta
)

// payloadOf is the event payload a family's stream carries: the
// variable's value after the event (sum), the per-event change of
// channel occupancy (inflight), or the 0/1 variable (all, count, xor,
// levels).
func payloadOf(f pred.Family) Payload {
	switch f {
	case pred.Sum:
		return PayloadValue
	case pred.InFlight:
		return PayloadDelta
	case pred.Conjunctive, pred.Count, pred.Xor, pred.Levels:
		return PayloadTruth
	default:
		return PayloadNone
	}
}

// Detector is one online predicate detector instance. It consumes the
// events of a single computation in any causality-respecting order:
// events of one process in local order, cross-process interleaving
// arbitrary as long as every event arrives after its causal
// predecessors (transports enforce this with holdback buffers).
//
// Step ingests one delivered event; Flush advances the detector over
// everything stepped since the last flush (detectors batch the
// expensive recomputations so a transport can amortise them over a
// whole mailbox drain) and returns the latched Possibly verdict. A
// Detector is confined to one goroutine.
type Detector interface {
	// Step consumes one causally delivered event. A non-nil error is
	// fatal for the stream (e.g. a unit-step violation).
	Step(ev Event) error
	// Flush advances the detector over the events stepped since the
	// last flush and returns the latched Possibly verdict.
	Flush() bool
	// Possibly returns the latched verdict as of the last Flush.
	Possibly() bool
	// Window returns the detector's retained state size in events.
	Window() int
	// Snapshot reports the detector's current view.
	Snapshot() Snapshot
}

// Traceable is implemented by detectors whose incremental work (closure
// recomputations, augmenting paths) can be accounted into a trace.
type Traceable interface {
	SetTrace(tr *obs.Trace)
}

// Snapshot is a detector's current view: the latched verdict, the
// retained window, and — for detectors tracking a quantity — the exact
// range the quantity attains over consistent cuts of the observed
// prefix.
type Snapshot struct {
	Possibly bool
	Window   int
	Min, Max int64
	HasRange bool
}

// Config carries the transport-level parameters of an incremental
// detector: everything about the session that is not part of the
// predicate itself.
type Config struct {
	// Procs is the number of processes in the monitored computation.
	Procs int
	// Involved lists the processes carrying a local predicate
	// (conjunctive only); nil means all. The other processes read true
	// in every state.
	Involved []int
	// Init gives the initial per-process variable values (PayloadValue:
	// the variable; PayloadTruth: 0/1, any nonzero value read as true).
	// nil means all zero/false. The initial cut is a consistent cut like
	// any other: every family with a value or truth payload reads it,
	// conjunctions included. Delta payloads take none (channel
	// occupancy starts at zero).
	Init []int64
}

// Caps are a registry entry's capability flags.
type Caps struct {
	// Incremental reports whether the family has an online detector
	// (New is set) — the precondition for streaming sessions and
	// StrategyReplay.
	Incremental bool
	// Sliceable reports whether the family is regular under this
	// modality's truth conventions, so detection can go through the
	// predicate's slice (Entry.Slice is set) — the precondition for
	// StrategySlice and for a streaming session swapping retained
	// history for the slice frontier.
	Sliceable bool
	// Payload declares the Event field the incremental detector
	// consumes; Register sets it from the family.
	Payload Payload
}

// Options carries per-run options a Batch function may consume.
type Options struct {
	// Singular selects the singular detection algorithm (CNF under
	// ModalityPossibly only).
	Singular singular.Strategy
	// Parallelism is the worker budget of the batch kernels. Batch
	// resolves the zero value to GOMAXPROCS before dispatching, so Batch
	// functions always see a concrete count; 1 runs the exact sequential
	// algorithms. Every family's parallel route is bit-identical to its
	// sequential one (same verdict, witness and work counters), so this
	// only affects wall-clock time.
	Parallelism int
}

// Result is the outcome of a batch or replay run. Transports copy the
// fields their report surfaces expose.
type Result struct {
	// Holds is the verdict under the entry's modality.
	Holds bool
	// Witness, when non-nil, is a consistent cut satisfying the
	// predicate (batch Possibly runs of the cut-constructing families;
	// replay runs do not construct cuts).
	Witness computation.Cut
	// Strategy and Combinations report the singular algorithm used and
	// the CPDHB sub-runs tried (CNF under ModalityPossibly only).
	Strategy     singular.Strategy
	Combinations int
	// Min and Max bound the tracked quantity over all consistent cuts
	// when HasRange is set.
	Min, Max int64
	HasRange bool
}
