package detect

// frontier is the causal bookkeeping shared by the range-based
// incremental detectors: it packs (process, local index) pairs into the
// tracker id space, derives an event's direct causal dependencies from
// its timestamp, and tracks the common vector-clock frontier below
// which events are stable — in the causal past of every event yet to
// arrive — and therefore safe to fold into a tracker baseline (see
// relsum.RangeTracker).
type frontier struct {
	procs      int
	lastVC     [][]int64 // timestamp of the last delivered event per process
	prunedUpto []int64   // per-process local index already folded away

	// Reused result buffers: requires and stable return slices that
	// stay valid until the next call of the same method.
	reqs   []int64
	stabID []int64
	minVC  []int64
}

func newFrontier(procs int) *frontier {
	return &frontier{
		procs:      procs,
		lastVC:     make([][]int64, procs),
		prunedUpto: make([]int64, procs),
	}
}

// id packs a (process, local index) pair into the tracker id space.
func (f *frontier) id(proc int, index int64) int64 {
	return index*int64(f.procs) + int64(proc)
}

// requires derives the event's causal dependencies from its timestamp:
// its local predecessor and, per other process, the latest event of
// that process in its causal past — but only where that component
// advanced since the process's previous delivered event. An unchanged
// component names an event already in the local predecessor's past, so
// its requirement follows through the local chain; and if the local
// predecessor was pruned, that event was pruned with it (the prune set
// is downward closed), so dropping it loses nothing. With no previous
// event to chain through (the process's first delivered event, or a
// previous event that is not the local predecessor), every nonzero
// component is kept. The slice is reused by the next call.
func (f *frontier) requires(ev Event) []int64 {
	p := ev.Proc
	own := ev.VC[p]
	reqs := f.reqs[:0]
	if own >= 2 {
		reqs = append(reqs, f.id(p, own-1))
	}
	prev := f.lastVC[p]
	if prev != nil && prev[p] != own-1 {
		prev = nil // not the local predecessor: no chain to imply through
	}
	for q, v := range ev.VC {
		if q != p && v >= 1 && (prev == nil || v > prev[q]) {
			reqs = append(reqs, f.id(q, v))
		}
	}
	f.reqs = reqs
	return reqs
}

// observe records a delivered event's timestamp.
func (f *frontier) observe(ev Event) {
	f.lastVC[ev.Proc] = ev.VC
}

// stable returns the ids that fell below the component-wise minimum of
// the processes' latest timestamps since the last call: those events
// are in the causal past of every event yet to arrive, so every cut
// still to be formed contains them. Returns nil while some process has
// not reported yet. The slice is reused by the next call.
func (f *frontier) stable() []int64 {
	min := f.minVC[:0]
	for q := 0; q < f.procs; q++ {
		min = append(min, int64(1)<<62)
	}
	f.minVC = min
	for _, vc := range f.lastVC {
		if vc == nil {
			return nil // a process has not reported yet: nothing is stable
		}
		for q, v := range vc {
			if v < min[q] {
				min[q] = v
			}
		}
	}
	ids := f.stabID[:0]
	for q := 0; q < f.procs; q++ {
		for i := f.prunedUpto[q] + 1; i <= min[q]; i++ {
			ids = append(ids, f.id(q, i))
		}
		if min[q] > f.prunedUpto[q] {
			f.prunedUpto[q] = min[q]
		}
	}
	f.stabID = ids
	return ids
}
