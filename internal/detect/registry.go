package detect

import (
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Entry binds one (family, modality) pair to its detectors.
type Entry struct {
	// Family and Modality key the entry.
	Family   pred.Family
	Modality Modality
	// Caps are the entry's capability flags.
	Caps Caps
	// Batch decides the predicate offline with the family's batch
	// algorithm on a sealed computation.
	Batch func(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error)
	// New builds the incremental detector (nil unless Caps.Incremental).
	// The same constructor backs both modalities of a family: Possibly
	// is latched online, Definitely is decided at close by the batch
	// route over the rebuilt stream (see Rebuild).
	New func(s pred.Spec, cfg Config) (Detector, error)
	// Slice decides the predicate through its computation slice (nil
	// unless Caps.Sliceable). The route may still reject individual
	// specs that fall outside the family's regular fragment, with an
	// error wrapping slicing.ErrNotRegular.
	Slice func(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error)
}

type regKey struct {
	family   pred.Family
	modality Modality
}

var registry = make(map[regKey]Entry)

// Register adds an entry to the registry. It panics on a duplicate
// (family, modality) key or a structurally incomplete entry; families
// register from init functions, so a bad registration fails fast at
// program start. An incremental entry's Caps.Payload is set from the
// family's stream payload, the one the shared linearizer and Rebuild
// read.
func Register(e Entry) {
	key := regKey{e.Family, e.Modality}
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("detect: duplicate registration for %v/%v", e.Family, e.Modality))
	}
	if e.Batch == nil {
		panic(fmt.Sprintf("detect: registration for %v/%v has no batch detector", e.Family, e.Modality))
	}
	if e.Caps.Incremental {
		e.Caps.Payload = payloadOf(e.Family)
		if e.New == nil || e.Caps.Payload == PayloadNone {
			panic(fmt.Sprintf("detect: incremental registration for %v/%v needs New and a streamed payload", e.Family, e.Modality))
		}
	}
	if e.Caps.Sliceable != (e.Slice != nil) {
		panic(fmt.Sprintf("detect: registration for %v/%v must set Slice iff Caps.Sliceable", e.Family, e.Modality))
	}
	registry[key] = e
}

// Lookup resolves the entry for a family and modality.
func Lookup(f pred.Family, m Modality) (Entry, bool) {
	e, ok := registry[regKey{f, m}]
	return e, ok
}

// Families returns the registered families in stable order.
func Families() []pred.Family {
	seen := make(map[pred.Family]bool)
	var out []pred.Family
	for key := range registry {
		if !seen[key.family] {
			seen[key.family] = true
			out = append(out, key.family)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Batch resolves the registry entry for the spec's family under the
// modality and runs its offline algorithm. The zero Parallelism option
// resolves to GOMAXPROCS here — once, for every family — so Batch
// functions and the kernels below them always receive a concrete worker
// count.
func Batch(c *computation.Computation, s pred.Spec, m Modality, opt Options, tr *obs.Trace) (Result, error) {
	e, ok := Lookup(s.Family, m)
	if !ok {
		return Result{}, fmt.Errorf("detect: no detector registered for %v under %v", s.Family, m)
	}
	opt.Parallelism = par.Limit(opt.Parallelism)
	return e.Batch(c, s, opt, tr)
}

// Replay decides the predicate by driving the family's incremental
// detector over a causal linearization of the sealed computation — the
// same state machine a streaming session runs, end to end: linearize,
// step, flush, and (under ModalityDefinitely) the same close-time
// decision a retaining session makes: batch Definitely, sequentially,
// over the computation rebuilt from the delivered events. It errors for
// families without an incremental detector.
func Replay(c *computation.Computation, s pred.Spec, m Modality, tr *obs.Trace) (Result, error) {
	e, ok := Lookup(s.Family, m)
	if !ok {
		return Result{}, fmt.Errorf("detect: no detector registered for %v under %v", s.Family, m)
	}
	if !e.Caps.Incremental {
		return Result{}, fmt.Errorf("detect: %v has no incremental detector; replay is unavailable", s.Family)
	}
	done := tr.Span("replay:" + s.Family.String())
	defer done()
	events, cfg := linearize(c, s)
	det, err := e.New(s, cfg)
	if err != nil {
		return Result{}, err
	}
	if t, ok := det.(Traceable); ok {
		t.SetTrace(tr)
	}
	for _, ev := range events {
		if err := det.Step(ev); err != nil {
			return Result{}, fmt.Errorf("detect: replay: %w", err)
		}
	}
	det.Flush()
	snap := det.Snapshot()
	tr.Add("replay.events", int64(len(events)))
	res := Result{Holds: snap.Possibly, Min: snap.Min, Max: snap.Max, HasRange: snap.HasRange}
	if m == ModalityDefinitely {
		rc, rs, err := Rebuild(events, s, cfg)
		if err != nil {
			return Result{}, err
		}
		def, err := Batch(rc, rs, ModalityDefinitely, Options{Parallelism: 1}, tr)
		if err != nil {
			return Result{}, err
		}
		res.Holds = def.Holds
	}
	return res, nil
}
