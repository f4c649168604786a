// Package conjunctive implements detection of conjunctive predicates — the
// conjunction of one local predicate per process — under the Possibly
// modality, following Garg and Waldecker's CPDHB algorithm ("Detection of
// weak unstable predicates in distributed programs", IEEE TPDS 1994).
//
// The key fact (Observation 1 of Mittal & Garg) is that a consistent cut
// satisfying the conjunction exists iff there are pairwise consistent true
// events, one on each involved process. Two events e (on p) and f are
// inconsistent iff next(e) happened-before-or-equals f, which in vector
// clock terms is clock(f)[p] > clock(e)[p]. The algorithm keeps one
// candidate true event per process and eliminates any candidate whose
// successor is known to another candidate; each elimination advances one
// cursor, so the running time is linear in the number of true events times
// the number of process pairs checked.
//
// The same inequality drives the online Checker, which consumes vector
// timestamps of events streamed by the application processes.
package conjunctive

import (
	"math"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// LocalPredicate evaluates a process-local predicate at the state following
// an event.
type LocalPredicate func(computation.Event) bool

// Result is the outcome of an offline detection.
type Result struct {
	// Found reports whether Possibly(conjunction) holds.
	Found bool
	// Witness, when Found, holds one true event per involved process;
	// the events are pairwise consistent.
	Witness []computation.EventID
	// Cut, when Found, is the least consistent cut passing through all
	// witness events.
	Cut computation.Cut
	// Eliminated counts candidate eliminations performed; exposed for
	// the benchmark harness.
	Eliminated int
}

// Detect runs the offline CPDHB algorithm on a sealed computation. locals
// maps each involved process to its local predicate; processes absent from
// the map are unconstrained. An empty map yields Found with the initial
// cut. Work counters accumulate into tr (nil is free): candidate (true)
// events enumerated and tokens advanced (candidate eliminations, the
// unit of CPDHB progress).
func Detect(c *computation.Computation, locals map[computation.ProcID]LocalPredicate, tr *obs.Trace) Result {
	procs := make([]computation.ProcID, 0, len(locals))
	for p := range locals {
		procs = append(procs, p)
	}
	// Map iteration order is random; canonicalize so elimination order —
	// and with it the work counters — is a pure function of the input.
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	// Candidate queues: the true events of each involved process.
	queues := make([][]computation.EventID, len(procs))
	total := int64(0)
	for i, p := range procs {
		pred := locals[p]
		for _, id := range c.ProcEvents(p) {
			if pred(c.Event(id)) {
				queues[i] = append(queues[i], id)
			}
		}
		total += int64(len(queues[i]))
		if len(queues[i]) == 0 {
			tr.Add("conjunctive.candidate_events", total)
			return Result{}
		}
	}
	tr.Add("conjunctive.candidate_events", total)
	cur := make([]int, len(procs))
	res := eliminate(c, procs, queues, cur)
	tr.Add("conjunctive.tokens_advanced", int64(res.Eliminated))
	if !res.Found {
		return res
	}
	res.Cut = c.CutThrough(res.Witness...)
	return res
}

// eliminate advances cursors until the candidates are pairwise consistent
// or some queue is exhausted.
func eliminate(
	c *computation.Computation,
	procs []computation.ProcID,
	queues [][]computation.EventID,
	cur []int,
) Result {
	eliminated := 0
	// dirty holds process slots whose candidate changed and must be
	// rechecked against all others.
	dirty := make([]int, len(procs))
	inDirty := make([]bool, len(procs))
	for i := range procs {
		dirty[i] = i
		inDirty[i] = true
	}
	bump := func(i int) bool {
		cur[i]++
		eliminated++
		if cur[i] >= len(queues[i]) {
			return false
		}
		if !inDirty[i] {
			dirty = append(dirty, i)
			inDirty[i] = true
		}
		return true
	}
	for len(dirty) > 0 {
		i := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		inDirty[i] = false
		ei := queues[i][cur[i]]
		ci := c.Clock(ei)
		for j := range procs {
			if j == i {
				continue
			}
			ej := queues[j][cur[j]]
			cj := c.Clock(ej)
			pi, pj := int(procs[i]), int(procs[j])
			// next(e_i) <= e_j ?
			if cj[pi] > ci[pi] {
				if !bump(i) {
					return Result{Eliminated: eliminated}
				}
				ei = queues[i][cur[i]]
				ci = c.Clock(ei)
				continue
			}
			// next(e_j) <= e_i ?
			if ci[pj] > cj[pj] {
				if !bump(j) {
					return Result{Eliminated: eliminated}
				}
			}
		}
	}
	witness := make([]computation.EventID, len(procs))
	for i := range procs {
		witness[i] = queues[i][cur[i]]
	}
	return Result{Found: true, Witness: witness, Eliminated: eliminated}
}

// DetectTables is Detect with the local predicates given as per-process
// boolean tables indexed by local event index (the representation produced
// by generators and the simulator). Rows may be nil for unconstrained
// processes.
func DetectTables(c *computation.Computation, truth [][]bool) Result {
	locals := make(map[computation.ProcID]LocalPredicate)
	for p, row := range truth {
		if row == nil {
			continue
		}
		row := row
		locals[computation.ProcID(p)] = func(e computation.Event) bool {
			return e.Index < len(row) && row[e.Index]
		}
	}
	return Detect(c, locals, nil)
}

// Checker is the online weak-conjunctive detector. Application processes
// stream the vector timestamps of their events (in local order) with the
// local predicate's truth after each; the checker reports as soon as a
// pairwise-consistent set of true states, one per involved process, is
// known. A true state is the state after a true event, or the initial
// state of a process seeded with Seed.
//
// Checker is not safe for concurrent use; callers serialize Step, Sweep
// and Observe (the stream detectors run it on one goroutine).
type Checker struct {
	procs []int         // involved processes, in slot order
	slot  map[int]int   // process -> slot
	queue [][]vclock.VC // candidate true-state timestamps per slot
	// seed holds, per slot, an initial-state candidate whose own
	// component still waits for the process's first event (nil once
	// known, or when the slot was never seeded).
	seed  []vclock.VC
	found bool
	wit   []vclock.VC
}

// NewChecker returns a checker for the given involved processes. Timestamp
// components are indexed by absolute process id.
func NewChecker(procs []int) *Checker {
	ch := &Checker{
		procs: append([]int(nil), procs...),
		slot:  make(map[int]int, len(procs)),
		queue: make([][]vclock.VC, len(procs)),
		seed:  make([]vclock.VC, len(procs)),
	}
	for i, p := range procs {
		ch.slot[p] = i
	}
	return ch
}

// Seed makes the initial state of an involved process its first
// candidate: the local predicate holds before the process's first event.
// n is the timestamp length. The initial state has seen no event of
// another process, so its other components are zero. Its own component
// is unbounded until the process's first event is stepped, true or not,
// and then is that event's own component minus one. Until that event
// arrives no candidate can have seen an event of the process, so the
// unbounded component keeps no stale seed alive. Seed must precede the
// process's first Step.
func (ch *Checker) Seed(proc, n int) {
	i, ok := ch.slot[proc]
	if !ok || ch.found {
		return
	}
	vc := make(vclock.VC, n)
	vc[proc] = math.MaxInt64
	ch.seed[i] = vc
	ch.queue[i] = append(ch.queue[i], vc)
}

// Step enqueues one event of a process without running the elimination
// sweep: its timestamp becomes a candidate when truth is set. The checker
// keeps vc, so the caller must not modify it afterwards. Events of one
// process must arrive in local order; processes may interleave
// arbitrarily. Events of processes that are not involved are ignored.
func (ch *Checker) Step(proc int, vc vclock.VC, truth bool) {
	i, ok := ch.slot[proc]
	if !ok || ch.found {
		return
	}
	if s := ch.seed[i]; s != nil {
		s[proc] = vc[proc] - 1
		ch.seed[i] = nil
	}
	if truth {
		ch.queue[i] = append(ch.queue[i], vc)
	}
}

// Sweep runs the elimination over everything stepped so far and returns
// whether the predicate has (now or earlier) been detected. One sweep
// covers any number of Steps, which is how the stream detectors amortise
// it over a whole mailbox drain.
func (ch *Checker) Sweep() bool {
	if !ch.found {
		ch.sweep()
	}
	return ch.found
}

// Found reports whether the predicate has been detected.
func (ch *Checker) Found() bool { return ch.found }

// Witness returns the timestamps of the detected true states, one per
// involved process in the order passed to NewChecker, or nil if not
// found. A seeded initial state whose process had no event yet carries
// an unbounded own component.
func (ch *Checker) Witness() []vclock.VC {
	if !ch.found {
		return nil
	}
	out := make([]vclock.VC, len(ch.wit))
	for i, vc := range ch.wit {
		out[i] = vc.Clone()
	}
	return out
}

// Observe steps a true event of the given process (keeping a copy of
// vc), sweeps, and returns whether the predicate has (now or earlier)
// been detected. Callers that Seed a process must Step its false events
// too, so Observe alone suits streams of true events only.
func (ch *Checker) Observe(proc int, vc vclock.VC) bool {
	ch.Step(proc, vc.Clone(), true)
	return ch.Sweep()
}

// Involved returns the involved processes in slot order.
func (ch *Checker) Involved() []int {
	return append([]int(nil), ch.procs...)
}

// Depths returns the current per-slot queue depths — the candidates that
// can be neither eliminated nor confirmed until other processes report.
func (ch *Checker) Depths() []int {
	out := make([]int, len(ch.queue))
	for i, q := range ch.queue {
		out[i] = len(q)
	}
	return out
}

// Pending returns the total number of queued candidates.
func (ch *Checker) Pending() int {
	n := 0
	for _, q := range ch.queue {
		n += len(q)
	}
	return n
}

// sweep runs the elimination loop over the queue heads. A head can only be
// eliminated when every queue is non-empty (otherwise a not-yet-seen event
// might be consistent with it), which mirrors the token-based algorithm.
func (ch *Checker) sweep() {
	for {
		for i := range ch.queue {
			if len(ch.queue[i]) == 0 {
				return // must wait for more observations
			}
		}
		advanced := false
		for i := range ch.queue {
			hi := ch.queue[i][0]
			pi := ch.procs[i]
			for j := range ch.queue {
				if j == i || len(ch.queue[j]) == 0 {
					continue
				}
				hj := ch.queue[j][0]
				if hj[pi] > hi[pi] {
					// next(head_i) is known to head_j: head_i can
					// never be consistent with current or later
					// candidates on j.
					ch.queue[i] = ch.queue[i][1:]
					advanced = true
					break
				}
			}
			if advanced {
				break
			}
		}
		if advanced {
			continue
		}
		// Stable and all queues non-empty: the heads are pairwise
		// consistent.
		ch.found = true
		ch.wit = make([]vclock.VC, len(ch.queue))
		for i := range ch.queue {
			ch.wit[i] = ch.queue[i][0]
		}
		return
	}
}
