// Package mux multiplexes many predicate detectors over one causally
// delivered event stream. It sits between the transport (internal/stream,
// which owns sessions, wire frames and sharding) and the detector kernel
// (internal/detect): events of one monitored computation are causally
// ordered ONCE by a Delivery, routed through a relevance index keyed by
// the variable and processes each predicate touches, and stepped only
// into the detectors whose verdict the event can move. Verdict changes
// fan out as batched Updates with per-predicate sequence numbers.
//
// Skipping events per-detector is sound only because the group rewrites
// timestamps: each detector sees the PROJECTION of the computation onto
// its variable's events, with vector clocks counting only those events
// (see project.go). Under the projection every detector observes a
// self-contained sub-computation — its causal-closure constraints never
// chain through an event it was not shown — and the consistent cuts of
// the projection are exactly the restrictions of the full computation's
// consistent cuts, so the latched Possibly verdict agrees with stepping
// the detector over every event.
package mux

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/detect"
)

// Delivery re-establishes causal order over one computation's event
// stream: events of one process must arrive in local order, arbitrary
// interleaving (even causal reordering) across processes is absorbed by
// the holdback buffer. Each causally ready event is handed to the
// deliver callback exactly once, in a causality-respecting order. A
// Delivery is confined to one goroutine.
type Delivery struct {
	procs     int
	delivered []int64        // events delivered per process
	holdback  []detect.Event // arrived but not yet causally deliverable
	deliver   func(detect.Event)
	err       error // sticky failure; the delivery is dead once set
}

// NewDelivery builds a causal delivery stage over procs processes,
// invoking deliver for each causally ready event.
func NewDelivery(procs int, deliver func(detect.Event)) *Delivery {
	return &Delivery{
		procs:     procs,
		delivered: make([]int64, procs),
		deliver:   deliver,
	}
}

// Step ingests one event, delivering it and everything it unblocks.
// Duplicate deliveries (e.g. client retries) are idempotent. Returns the
// sticky error, if any.
func (d *Delivery) Step(ev detect.Event) error {
	if d.err != nil {
		return d.err
	}
	if ev.Proc < 0 || ev.Proc >= d.procs {
		return d.fail(fmt.Errorf("mux: event for process %d of %d", ev.Proc, d.procs))
	}
	if len(ev.VC) != d.procs {
		return d.fail(fmt.Errorf("mux: event timestamp has %d components, want %d", len(ev.VC), d.procs))
	}
	own := ev.VC[ev.Proc]
	if own <= d.delivered[ev.Proc] && !d.heldBack(ev.Proc, own) {
		return nil // duplicate
	}
	//lint:ignore hotalloc the holdback buffer grows by design — it absorbs causal reordering and is bounded by the session layer's MaxWindow policy, and the backing array is reused across drains
	d.holdback = append(d.holdback, ev)
	d.drain()
	return d.err
}

// Fail latches a sticky error from outside (an all-events detector or a
// slicer rejected a delivered event); delivery stops and further Steps
// return it.
func (d *Delivery) Fail(err error) { d.fail(err) }

func (d *Delivery) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// heldBack reports whether the event with the given own-component is
// already waiting in the holdback buffer.
func (d *Delivery) heldBack(proc int, own int64) bool {
	for _, h := range d.holdback {
		if h.Proc == proc && h.VC[proc] == own {
			return true
		}
	}
	return false
}

// drain delivers every causally deliverable holdback event.
func (d *Delivery) drain() {
	for {
		progress := false
		kept := d.holdback[:0]
		for _, ev := range d.holdback {
			if d.err == nil && d.deliverable(ev) {
				d.delivered[ev.Proc] = ev.VC[ev.Proc]
				d.deliver(ev)
				progress = true
			} else {
				//lint:ignore hotalloc kept aliases d.holdback[:0], so this append compacts in place and never outgrows the existing backing array
				kept = append(kept, ev)
			}
		}
		d.holdback = kept
		if !progress {
			return
		}
	}
}

// deliverable implements the causal delivery condition: the event is the
// next local event of its process and its cross-process dependencies
// have all been delivered.
func (d *Delivery) deliverable(ev detect.Event) bool {
	if ev.VC[ev.Proc] != d.delivered[ev.Proc]+1 {
		return false
	}
	for q, v := range ev.VC {
		if q != ev.Proc && v > d.delivered[q] {
			return false
		}
	}
	return true
}

// Err returns the sticky error, if any.
func (d *Delivery) Err() error { return d.err }

// Delivered returns the total number of causally delivered events.
func (d *Delivery) Delivered() int64 {
	var t int64
	for _, v := range d.delivered {
		t += v
	}
	return t
}

// DeliveredOn returns the number of delivered events of one process.
func (d *Delivery) DeliveredOn(p int) int64 { return d.delivered[p] }

// Holdback returns the number of buffered undeliverable events.
func (d *Delivery) Holdback() int { return len(d.holdback) }
