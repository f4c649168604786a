package detect

import (
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// The range families — sum, inflight, count, xor and levels — are one
// construction: an ideal-sum quantity (relsum.Quantity) ranged over the
// consistent cuts. sum ranges over a variable, inflight over channel
// occupancy (sends − receives), and count, xor and levels over the
// true-count of a boolean variable, probed at the levels of a symmetric
// spec (§4.3). They share one batch route per modality and one streamed
// detector, which differ per family only in the payload they decode and
// the verdict they latch.
func init() {
	for _, f := range []pred.Family{pred.Sum, pred.InFlight, pred.Count, pred.Xor, pred.Levels} {
		pos := Entry{
			Family: f, Modality: ModalityPossibly,
			Caps:  Caps{Incremental: true},
			Batch: rangePossibly, New: newSumDetector,
		}
		def := pos
		def.Modality, def.Batch = ModalityDefinitely, rangeDefinitely
		if f == pred.InFlight {
			// Quiescence (inflight == 0) is the one regular range
			// predicate; the slice route admits only that spec.
			pos.Caps.Sliceable, pos.Slice = true, inflightSlicePossibly
			def.Caps.Sliceable, def.Slice = true, inflightSliceDefinitely
		}
		Register(pos)
		Register(def)
	}
}

// symmetricSpec builds the level-set form of the Count, Xor and Levels
// families for a computation with n processes.
func symmetricSpec(n int, s pred.Spec) symmetric.Spec {
	switch s.Family {
	case pred.Xor:
		return symmetric.Xor(n)
	case pred.Count:
		return symmetric.FromFunc(n, func(m int) bool { return s.Rel.Eval(int64(m), s.K) })
	default: // pred.Levels
		levels := append([]int(nil), s.Levels...)
		sort.Ints(levels)
		out := levels[:0]
		for i, m := range levels {
			if i == 0 || m != levels[i-1] {
				out = append(out, m)
			}
		}
		return symmetric.Spec{N: n, Levels: out}
	}
}

// rangePossibly decides Possibly from the exact range of the family's
// quantity, reporting the range with the verdict.
func rangePossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	var (
		ok  bool
		cut computation.Cut
		b   relsum.Bounds
		err error
	)
	switch s.Family {
	case pred.Sum:
		ok, cut, b, err = relsum.Possibly(relsum.Var(c, s.Var), s.Rel, s.K, opt.Parallelism, tr)
	case pred.InFlight:
		ok, cut, b, err = relsum.Possibly(relsum.InFlight(c), s.Rel, s.K, opt.Parallelism, tr)
		if s.Rel != relsum.Eq {
			cut = nil // channel occupancy reports a witness under == only
		}
	default:
		ok, cut, b, err = symmetric.Possibly(c, symmetricSpec(c.NumProcs(), s), symmetric.Truth(varTruth(c, s.Var)), opt.Parallelism, tr)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Holds: ok, Witness: cut, Min: b.Min, Max: b.Max, HasRange: true}, nil
}

// rangeDefinitely decides Definitely by region reachability in the cut
// lattice. Channel occupancy also reports its range.
func rangeDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	switch s.Family {
	case pred.Sum:
		ok, err := relsum.Definitely(relsum.Var(c, s.Var), s.Rel, s.K, opt.Parallelism, tr)
		return Result{Holds: ok}, err
	case pred.InFlight:
		q := relsum.InFlight(c)
		b := relsum.Range(q, opt.Parallelism, tr)
		ok, err := relsum.Definitely(q, s.Rel, s.K, opt.Parallelism, tr)
		return Result{Holds: ok, Min: b.Min, Max: b.Max, HasRange: true}, err
	default:
		ok, err := symmetric.Definitely(c, symmetricSpec(c.NumProcs(), s), symmetric.Truth(varTruth(c, s.Var)), opt.Parallelism, tr)
		return Result{Holds: ok}, err
	}
}

// sumDetector is the one streamed detector of the range families: a
// relsum.RangeTracker over the per-event change of the family's
// quantity, pruned below the common vector-clock frontier, with the
// verdict latched from the running extrema by the decision chosen at
// construction (relop over the range for sum and inflight, a level in
// the range for the count-based families).
type sumDetector struct {
	fr      *frontier
	tracker *relsum.RangeTracker
	spec    pred.Spec
	payload Payload
	decide  func(min, max int64) bool
	unit    bool // enforce |change| <= 1 per event (== needs it)

	// lastVal is each process's value after its last delivered event
	// (PayloadValue: the variable; PayloadTruth: 0/1), which value and
	// truth payloads diff against; delta payloads carry the change.
	lastVal []int64

	possibly bool
}

func newSumDetector(s pred.Spec, cfg Config) (Detector, error) {
	d := &sumDetector{
		fr:      newFrontier(cfg.Procs),
		spec:    s,
		payload: payloadOf(s.Family),
		lastVal: make([]int64, cfg.Procs),
	}
	switch d.payload {
	case PayloadDelta:
		// Occupancy starts at zero; the deltas are unit-step whenever
		// every event sends or receives at most one message.
		if len(cfg.Init) > 0 {
			return nil, fmt.Errorf("detect: inflight detectors take no initial values (occupancy starts at 0)")
		}
	case PayloadTruth:
		for p, v := range cfg.Init {
			if v != 0 {
				d.lastVal[p] = 1
			}
		}
	default:
		copy(d.lastVal, cfg.Init)
	}
	if d.payload == PayloadTruth {
		// A boolean flips by at most one per event, so the count is
		// always unit-step.
		d.decide = symmetricSpec(cfg.Procs, s).Attainable
	} else {
		d.unit = s.Rel == relsum.Eq
		d.decide = func(min, max int64) bool { return s.Rel.Attainable(min, max, s.K) }
	}
	var base int64
	for _, v := range d.lastVal {
		base += v
	}
	d.tracker = relsum.NewRangeTracker(base)
	// The initial cut is a consistent cut: latch it right away.
	d.possibly = d.decide(base, base)
	return d, nil
}

func (d *sumDetector) SetTrace(tr *obs.Trace) { d.tracker.SetTrace(tr) }

// variable names the stream the detector consumes: the spec's variable,
// or InFlightVar for channel occupancy.
func (d *sumDetector) variable() string {
	if d.payload == PayloadDelta {
		return InFlightVar
	}
	return d.spec.Var
}

func (d *sumDetector) Step(ev Event) error {
	p := ev.Proc
	var change int64
	switch d.payload {
	case PayloadDelta:
		change = ev.Val
	case PayloadTruth:
		var v int64
		if ev.Truth {
			v = 1
		}
		change = v - d.lastVal[p]
		d.lastVal[p] = v
	default:
		change = ev.Val - d.lastVal[p]
		d.lastVal[p] = ev.Val
	}
	if d.unit && (change > 1 || change < -1) {
		return fmt.Errorf("%w: process %d event %d changes %q by %d",
			relsum.ErrNotUnitStep, p, ev.VC[p], d.variable(), change)
	}
	id := d.fr.id(p, ev.VC[p])
	d.tracker.Observe(id, change, d.fr.requires(ev))
	d.fr.observe(ev)
	return nil
}

func (d *sumDetector) Flush() bool {
	d.tracker.Flush()
	if ids := d.fr.stable(); len(ids) > 0 {
		d.tracker.Prune(ids)
	}
	if min, max := d.tracker.Range(); !d.possibly && d.decide(min, max) {
		d.possibly = true
	}
	return d.possibly
}

func (d *sumDetector) Possibly() bool { return d.possibly }

func (d *sumDetector) Window() int { return d.tracker.Window() }

func (d *sumDetector) Snapshot() Snapshot {
	min, max := d.tracker.Range()
	return Snapshot{Possibly: d.possibly, Window: d.tracker.Window(), Min: min, Max: max, HasRange: true}
}
