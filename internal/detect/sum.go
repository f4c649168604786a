package detect

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

func init() {
	caps := Caps{Incremental: true, Payload: PayloadValue}
	Register(Entry{
		Family: pred.Sum, Modality: ModalityPossibly, Caps: caps,
		Batch: sumPossibly, New: newSumDetector, Linearize: linearizeSum,
	})
	caps.NeedsFullTrace = true
	Register(Entry{
		Family: pred.Sum, Modality: ModalityDefinitely, Caps: caps,
		Batch: sumDefinitely, New: newSumDetector, Linearize: linearizeSum,
	})
}

func sumPossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	ok, cut, err := relsum.PossiblyWitnessPar(c, s.Var, s.Rel, s.K, opt.Parallelism, tr)
	return Result{Holds: ok, Witness: cut}, err
}

func sumDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	ok, err := relsum.DefinitelyPar(c, s.Var, s.Rel, s.K, opt.Parallelism, tr)
	return Result{Holds: ok}, err
}

// relPossible decides Possibly(S relop k) from the exact extrema of S
// over the consistent cuts covered so far. For the order operators and
// != the extrema suffice with no step assumption; for = the caller must
// enforce unit steps, under which every integer in [min, max] is
// attained (the intermediate-value property of Theorem 4 lifted to the
// streaming setting).
func relPossible(r relsum.Relop, k, min, max int64) bool {
	switch r {
	case relsum.Lt:
		return min < k
	case relsum.Le:
		return min <= k
	case relsum.Ge:
		return max >= k
	case relsum.Gt:
		return max > k
	case relsum.Ne:
		return min != k || max != k
	default: // Eq
		return min <= k && k <= max
	}
}

// sumDetector is the range-based incremental detector shared by the sum
// and inflight families: a relsum.RangeTracker over per-event changes,
// pruned below the common vector-clock frontier, with the verdict
// latched from the running extrema via relPossible.
type sumDetector struct {
	fr      *frontier
	tracker *relsum.RangeTracker
	rel     relsum.Relop
	k       int64
	unit    bool // enforce |change| <= 1 per event (Eq needs it)

	// Payload decoding: delta sessions (inflight) carry the per-event
	// change directly; value sessions carry the variable's value after
	// the event and diff against lastVal.
	delta   bool
	lastVal []int64

	// Finalize support: the variable name for value sessions, recorded
	// per-event changes for delta sessions (only when Config.Retain).
	varName string
	weights map[int64]int64

	possibly bool
}

func newSumDetector(s pred.Spec, cfg Config) (Detector, error) {
	d := &sumDetector{
		fr:      newFrontier(cfg.Procs),
		rel:     s.Rel,
		k:       s.K,
		unit:    s.Rel == relsum.Eq,
		lastVal: make([]int64, cfg.Procs),
		varName: s.Var,
	}
	copy(d.lastVal, cfg.Init)
	var baseline int64
	for _, v := range cfg.Init {
		baseline += v
	}
	d.tracker = relsum.NewRangeTracker(baseline)
	// The initial cut is a consistent cut: latch it right away.
	d.possibly = relPossible(d.rel, d.k, baseline, baseline)
	return d, nil
}

func (d *sumDetector) SetTrace(tr *obs.Trace) { d.tracker.SetTrace(tr) }

func (d *sumDetector) Step(ev Event) error {
	p := ev.Proc
	var change int64
	if d.delta {
		change = ev.Val
	} else {
		change = ev.Val - d.lastVal[p]
		d.lastVal[p] = ev.Val
	}
	if d.unit && (change > 1 || change < -1) {
		return fmt.Errorf("%w: process %d event %d changes by %d",
			relsum.ErrNotUnitStep, p, ev.VC[p], change)
	}
	id := d.fr.id(p, ev.VC[p])
	d.tracker.Observe(id, change, d.fr.requires(ev))
	d.fr.observe(ev)
	if d.weights != nil {
		d.weights[id] = change
	}
	return nil
}

func (d *sumDetector) Flush() bool {
	d.tracker.Flush()
	if ids := d.fr.stable(); len(ids) > 0 {
		d.tracker.Prune(ids)
	}
	if min, max := d.tracker.Range(); !d.possibly && relPossible(d.rel, d.k, min, max) {
		d.possibly = true
	}
	return d.possibly
}

func (d *sumDetector) Possibly() bool { return d.possibly }

// Touches bounds the detector's relevance set: the sum ranges over the
// named variable's events on every process (channel-occupancy sessions
// consume the reserved InFlightVar delta stream instead).
func (d *sumDetector) Touches() Relevance {
	if d.delta {
		return Relevance{Vars: []string{InFlightVar}}
	}
	return Relevance{Vars: []string{d.varName}}
}

func (d *sumDetector) Window() int { return d.tracker.Window() }

func (d *sumDetector) Snapshot() Snapshot {
	min, max := d.tracker.Range()
	return Snapshot{Possibly: d.possibly, Window: d.tracker.Window(), Min: min, Max: max, HasRange: true}
}

// FinalizeDefinitely decides Definitely over the complete computation:
// from the named variable for value sessions, from the recorded
// per-event changes for delta sessions (the rebuilt trace has no
// messages to derive channel occupancy from, so the detector keeps the
// weights itself when the transport retains the trace).
func (d *sumDetector) FinalizeDefinitely(c *computation.Computation, tr *obs.Trace) (bool, error) {
	if !d.delta {
		return relsum.DefinitelyTraced(c, d.varName, d.rel, d.k, tr)
	}
	if d.weights == nil {
		return false, fmt.Errorf("detect: detector did not retain per-event weights (session not opened with retain)")
	}
	w := func(e computation.Event) int64 {
		return d.weights[d.fr.id(int(e.Proc), int64(e.Index))]
	}
	return relsum.DefinitelyWeightedTraced(c, 0, w, d.rel, d.k, tr)
}

// linearizeSum replays the named variable: events carry its value after
// the event, the config its per-process initial values.
func linearizeSum(c *computation.Computation, s pred.Spec) ([]Event, Config, error) {
	init := make([]int64, c.NumProcs())
	for p := range init {
		init[p] = c.Var(s.Var, c.Initial(computation.ProcID(p)).ID)
	}
	events := LinearizeEvents(c, func(e computation.Event, ev *Event) {
		ev.Val = c.Var(s.Var, e.ID)
	})
	return events, Config{Procs: c.NumProcs(), Init: init}, nil
}
