package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// The traced run of a stream workload. A short TCP run gives the
// process-level figures and the engine's batching; then the same inputs
// are replayed on one goroutine through each layer's public functions,
// one layer at a time, with a span around every call (one span per
// layer per frame). A layer's self time is its replay's time minus the
// replays of the layers it calls: the group replay minus delivery,
// detectors and slicers is routing, the session replay minus the group
// is the session, the engine minus a session replay at the engine's own
// flush rate is the engine. The server is a framing-only TCP replay;
// whatever the TCP run's CPU per event holds beyond wire, server and
// engine is reported as other.

// detectFamilies are the incremental families the stream workloads run.
var detectFamilies = []pred.Family{pred.Sum, pred.InFlight, pred.Conjunctive, pred.Count, pred.Xor, pred.Levels}

// spansPath is where the traced run writes its spans ("" = nowhere).
var spansPath string

// replay carries what the layer replays share.
type replay struct {
	in         *streamInputs
	tr         *tracer
	events     int64 // events over one pass of every script
	flushEvery int   // append frames between detector flushes
	specs      map[string]pred.Spec
	mismatches []string

	// Per script, from the delivery replay.
	delivered      map[*script][]stream.Event
	deliveredAfter map[*script][]int // delivered count after each append frame
}

// perEvent converts a total duration into nanoseconds per stream event.
func (r *replay) perEvent(d time.Duration) float64 { return float64(d) / float64(r.events) }

// spec parses a predicate once.
func (r *replay) spec(text string) pred.Spec {
	ps, ok := r.specs[text]
	if !ok {
		var err error
		if ps, err = pred.Parse(text); err != nil {
			panic(fmt.Sprintf("generated predicate %q does not parse: %v", text, err))
		}
		r.specs[text] = ps
	}
	return ps
}

// registration converts a wire registration the way the engine does.
func (r *replay) registration(reg *stream.RegisterSpec) mux.Registration {
	return mux.Registration{ID: reg.ID, Tenant: reg.Tenant, Spec: r.spec(reg.Pred), Involved: reg.Involved, Init: reg.Init, Slice: reg.Slice}
}

// sessionRegistration is the all-events registration a single-predicate
// session runs on.
func (r *replay) sessionRegistration(s *script) mux.Registration {
	return mux.Registration{ID: "session", Spec: r.spec(s.spec.Pred), Init: s.spec.Init, AllEvents: true}
}

// flushAfter reports whether the replays flush after the a-th append.
func (r *replay) flushAfter(a int) bool { return (a+1)%r.flushEvery == 0 }

// replayRounds is how often the layer replays run; every timing and
// self time is the median over the rounds, which filters out
// interference from the rest of the machine.
const replayRounds = 5

// traceStream is the traced run of a stream workload.
func traceStream(in *streamInputs, d time.Duration) (*report, result, error) {
	all := &outcome{}
	h, _, _, err := startHarness(in, benchConfig())
	if err != nil {
		return nil, result{}, err
	}
	// Untraced saturation: CPU, GC and allocation per event.
	cpu0, a0 := cpuNow(), startAllocs()
	gc0, tot0 := gcCPU()
	plain, plainTook := saturate(h, in, d/4, true, nil)
	cpu := cpuNow() - cpu0
	_, allocBytes := a0.since()
	gc1, tot1 := gcCPU()
	all.merge(plain)
	// The same phase with spans on, for the tracing overhead; then the
	// open loop for generator lag.
	tr := newTracer()
	traced, tracedTook := saturate(h, in, d/4, false, tr)
	all.merge(traced)
	ol := openLoop(h, in, d/4, tr)
	all.merge(ol)
	snap := h.eng.Snapshot()
	h.close()
	all.failed += int64(snap.Dropped)

	r := &replay{in: in, specs: make(map[string]pred.Spec),
		delivered: make(map[*script][]stream.Event), deliveredAfter: make(map[*script][]int)}
	for _, s := range in.scripts {
		r.events += int64(s.events)
	}
	fpf := float64(plain.flushes+traced.flushes) / float64(max(plain.appendFrames+traced.appendFrames, 1))
	r.flushEvery = 1
	if fpf > 0 && fpf < 1 {
		r.flushEvery = int(1/fpf + 0.5)
	}
	plainEvents := float64(max(plain.events, 1))
	cpuPerEvent := float64(cpu) / plainEvents

	var reps []*report
	var parts []map[string]float64
	for round := 0; round < replayRounds; round++ {
		r.tr = nil
		if round == 0 {
			r.tr = tr // spans of the first round only
		}
		rep := newReport()
		if round == 0 {
			rep.text("# %s traced: %d scripts, %d events per pass, flush every %d append frames, median of %d replay rounds",
				in.workload, len(in.scripts), r.events, r.flushEvery, replayRounds)
			untracedRate := plainEvents / plainTook.Seconds()
			tracedRate := float64(traced.events) / tracedTook.Seconds()
			rep.note("events_per_s.untraced", untracedRate, "1/s", int(plain.closes))
			rep.note("events_per_s.traced", tracedRate, "1/s", int(traced.closes))
			rep.note("tracing_overhead_frac", 1-tracedRate/untracedRate, "frac", 0)
		}
		runtime.GC()
		parts = append(parts, r.layers(rep, snap, fpf))
		reps = append(reps, rep)
	}
	rep := reps[0]
	rep.keepMedian(reps[1:])
	// Self time per layer, per round: each replay minus the replays of
	// the layers it calls. Whatever the TCP run's CPU holds beyond wire,
	// server and engine (GC outside the replays, scheduling, the load
	// generator's own reads) is other.
	selfs := make([]map[string]float64, len(parts))
	for i, part := range parts {
		self := map[string]float64{
			"stream.wire":     part["wire"],
			"stream.server":   part["server"],
			"stream.engine":   part["engine"] - part["session.engine"],
			"stream.session":  part["session"] - part["group"],
			"mux.group.route": part["group"] - part["delivery"] - part["detectors"] - part["slicing"],
			"mux.delivery":    part["delivery"],
			"slicing.observe": part["slicing"],
			"other":           cpuPerEvent - part["wire"] - part["server"] - part["engine"],
		}
		for name, v := range part {
			if strings.HasPrefix(name, "detect.") {
				self[name] = v
			}
		}
		selfs[i] = self
	}
	self := make(map[string]float64)
	for name := range selfs[0] {
		var xs []float64
		for _, s := range selfs {
			xs = append(xs, s[name])
		}
		self[name] = median(xs)
	}
	rep.add("mux.group.route_ns_per_event", self["mux.group.route"], "ns", 0)
	other := self["other"]
	self["process.cpu_total"] = cpuPerEvent
	rep.add("process.cpu_ns_per_event", cpuPerEvent, "ns", int(plain.events))
	rep.add("process.gc_cpu_frac", (gc1-gc0)/max(tot1-tot0, 1e-9), "frac", 0)
	rep.add("process.alloc_bytes_per_event", allocBytes/plainEvents, "B", 0)
	rep.add("other.ns_per_event", other, "ns", 0)
	rep.add("loadgen.lag_p99_ms", ms(ol.lag.quantile(0.99)), "ms", len(ol.lag))
	fillZeros(rep)
	largest := printSelfTimes(rep, self)

	spans := tr.names()
	rep.text("# checks")
	check(rep, "verdicts of every replay agree with gpd.Detect", len(r.mismatches) == 0)
	switch in.workload {
	case "sum-stream":
		check(rep, "detect.sum.flush is the largest self time (largest: "+largest+")", largest == "detect.sum.flush")
		check(rep, "mux.delivery.holdback_max is 0", rep.metrics["mux.delivery.holdback_max"].Value == 0)
		check(rep, "mux.group.steps_per_event is 1", rep.metrics["mux.group.steps_per_event"].Value == 1)
	case "mux-reorder":
		check(rep, "mux.delivery.holdback_max is above 0", rep.metrics["mux.delivery.holdback_max"].Value > 0)
	}
	check(rep, "stream and mux spans recorded", hasPrefix(spans, "stream.") && hasPrefix(spans, "mux."))
	if err := writeSpans(tr, in.workload); err != nil {
		return nil, result{}, err
	}
	all.mismatches = append(all.mismatches, r.mismatches...)
	return rep, finish(all), nil
}

// layers runs every layer replay once, adding its figures to rep, and
// returns each replay's time in ns per event.
func (r *replay) layers(rep *report, snap stream.Snapshot, fpf float64) map[string]float64 {
	// Each replay starts from a collected heap, so none pays for the
	// garbage of the one before.
	measure := func(f func() float64) float64 {
		runtime.GC()
		return f()
	}
	var engineFlushEvery int
	part := map[string]float64{
		"wire":   measure(func() float64 { return r.wireLayer(rep) }),
		"server": measure(func() float64 { return r.transportLayer(rep) }),
		"engine": measure(func() float64 {
			ns, every := r.engineLayer(rep, snap)
			engineFlushEvery = every
			return ns
		}),
		"session":  measure(func() float64 { return r.sessionLayer(rep, r.flushEvery) }),
		"delivery": measure(func() float64 { return r.deliveryLayer(rep) }),
	}
	part["session.engine"] = measure(func() float64 { return r.sessionLayer(nil, engineFlushEvery) })
	runtime.GC()
	detectors := r.detectLayers(rep)
	part["detectors"] = detectors.total
	for name, v := range detectors.self {
		part[name] = v
	}
	part["slicing"] = measure(func() float64 { return r.slicingLayer(rep) })
	part["group"] = measure(func() float64 { return r.groupLayer(rep) })
	rep.add("stream.session.flushes_per_frame", fpf, "count", 0)
	return part
}

// transportLayer measures the TCP transport alone: every script's frames
// over a loopback connection, pipelined as in the closed loop, whose far
// end only reads each frame (stream.ReadFrame) and answers with a
// pre-encoded acknowledgement (stream.WriteFrame) — no JSON, no engine.
// It returns the process CPU per event, both ends included.
func (r *replay) transportLayer(rep *report) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.mismatches = append(r.mismatches, "transport: "+err.Error())
		return 0
	}
	ack, err := json.Marshal(stream.Response{V: stream.ProtocolVersion, OK: true})
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			if _, err := stream.ReadFrame(br); err != nil {
				return
			}
			if stream.WriteFrame(bw, ack) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		r.mismatches = append(r.mismatches, "transport: "+err.Error())
		return 0
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	cpu0 := cpuNow()
	inflight := 0
	for _, s := range r.in.scripts {
		for _, p := range scriptFrames(s, 0, false) {
			if inflight == pipelineDepth {
				if _, err := stream.ReadFrame(br); err != nil {
					r.mismatches = append(r.mismatches, "transport: "+err.Error())
					return 0
				}
				inflight--
			}
			if _, err := conn.Write(p.wire()); err != nil {
				r.mismatches = append(r.mismatches, "transport: "+err.Error())
				return 0
			}
			inflight++
		}
	}
	for ; inflight > 0; inflight-- {
		if _, err := stream.ReadFrame(br); err != nil {
			r.mismatches = append(r.mismatches, "transport: "+err.Error())
			return 0
		}
	}
	ns := r.perEvent(cpuNow() - cpu0)
	rep.add("stream.server.ns_per_event", ns, "ns", 0)
	return ns
}

func check(rep *report, what string, ok bool) {
	verdict := "ok"
	if !ok {
		verdict = "NOT MET"
	}
	rep.text("check %-70s %s", what, verdict)
}

func hasPrefix(names []string, prefix string) bool {
	for _, n := range names {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// printSelfTimes prints the self-time table, largest first, and returns
// the largest layer (the CPU total excluded).
func printSelfTimes(rep *report, self map[string]float64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	rep.text("# self time per layer (ns per event)")
	largest := ""
	for _, n := range names {
		rep.text("self %-40s %12.1f", n, self[n])
		if largest == "" && n != "process.cpu_total" && n != "other" {
			largest = n
		}
	}
	return largest
}

func writeSpans(tr *tracer, workload string) error {
	if spansPath == "" {
		return nil
	}
	f, err := os.Create(spansPath)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d spans written to %s\n", workload, len(tr.spans), spansPath)
	return nil
}

// wireLayer times DecodeRequest over every frame and EncodeResponse over
// the reply each frame gets; it returns wire ns per event. A second
// decode pass over the append frames alone gives the per-frame figures
// the ROADMAP baseline quotes.
func (r *replay) wireLayer(rep *report) float64 {
	var decode, decodeAppend, encode time.Duration
	var appendEvents, appendBytes, appendFrames int64
	a := startAllocs()
	frameID := 0
	for _, s := range r.in.scripts {
		for _, f := range append(s.frames[:len(s.frames):len(s.frames)], s.query) {
			sp := r.tr.begin("stream.wire.decode", frameID)
			t0 := time.Now()
			_, err := stream.DecodeRequest(bytes.NewReader(f.wire))
			decode += time.Since(t0)
			r.tr.end(sp)
			frameID++
			if err != nil {
				r.mismatches = append(r.mismatches, "decode: "+err.Error())
			}
		}
	}
	allocs, bytesAlloc := a.since()
	a = startAllocs()
	for _, s := range r.in.scripts {
		for _, f := range s.frames {
			if f.kind != kindAppend {
				continue
			}
			t0 := time.Now()
			req, err := stream.DecodeRequest(bytes.NewReader(f.wire))
			decodeAppend += time.Since(t0)
			if err == nil {
				appendEvents += int64(len(req.Events))
				appendBytes += int64(len(f.wire))
				appendFrames++
			}
		}
	}
	appendAllocs, _ := a.since()
	nReplies := 0
	var buf bytes.Buffer
	for _, s := range r.in.scripts {
		for _, resp := range replies(s) {
			buf.Reset()
			sp := r.tr.begin("stream.wire.encode", -1)
			t0 := time.Now()
			if err := stream.EncodeResponse(&buf, resp); err != nil {
				r.mismatches = append(r.mismatches, "encode: "+err.Error())
			}
			encode += time.Since(t0)
			r.tr.end(sp)
			nReplies++
		}
	}
	rep.add("stream.wire.decode_ns_per_event", r.perEvent(decode), "ns", 0)
	rep.add("stream.wire.decode_allocs_per_event", allocs/float64(r.events), "count", 0)
	rep.add("stream.wire.decode_bytes_per_event", bytesAlloc/float64(r.events), "B", 0)
	rep.add("stream.wire.frame_bytes_per_event", float64(appendBytes)/float64(appendEvents), "B", 0)
	rep.add("stream.wire.encode_ns_per_reply", float64(encode)/float64(nReplies), "ns", nReplies)
	rep.note("stream.wire.decode_append_ns_per_event", float64(decodeAppend)/float64(appendEvents), "ns", int(appendFrames))
	rep.note("stream.wire.decode_allocs_per_append_frame", appendAllocs/float64(appendFrames), "count", int(appendFrames))
	rep.text("shape frame bytes per event %.1f (%d append frames)", float64(appendBytes)/float64(appendEvents), appendFrames)
	return r.perEvent(decode + encode)
}

// replies builds the reply each of a script's frames gets.
func replies(s *script) []stream.Response {
	ok := stream.Response{V: stream.ProtocolVersion, OK: true}
	var out []stream.Response
	for _, f := range s.frames {
		switch f.kind {
		case kindClose:
			out = append(out, stream.Response{V: stream.ProtocolVersion, OK: true,
				Stats: &stream.SessionStats{ID: s.id, Kind: "mux", Ingested: uint64(s.events), Delivered: int64(s.events)}})
			v := stream.Verdict{Possibly: s.wantPossibly}
			var preds []mux.Update
			for id, want := range s.wantPreds {
				preds = append(preds, mux.Update{ID: id, Tenant: "default", Seq: 1, Possibly: want})
			}
			sort.Slice(preds, func(i, j int) bool { return preds[i].ID < preds[j].ID })
			out = append(out, stream.Response{V: stream.ProtocolVersion, OK: true, Verdict: &v, Predicates: preds})
		default:
			out = append(out, ok)
		}
	}
	return out
}

// engineLayer replays every script through an in-process engine from
// this goroutine and checks the close-time verdicts. The engine runs its
// own workers, so it returns process CPU (not wall) ns per event, and
// the append frames per flush its batching chose, for the session
// replay it is compared with. Batching figures come from the TCP run's
// engine snapshot.
func (r *replay) engineLayer(rep *report, snap stream.Snapshot) (float64, int) {
	eng := stream.NewEngine(benchConfig())
	defer eng.Shutdown()
	a := startAllocs()
	cpu0 := cpuNow()
	frameID := 0
	var flushes, appends int
	for _, s := range r.in.scripts {
		for _, f := range s.frames {
			sp := r.tr.begin("stream.engine."+kindNames[f.kind], frameID)
			frameID++
			var err error
			switch f.kind {
			case kindOpen:
				err = eng.Open(s.id, s.spec)
			case kindRegister:
				_, err = eng.Register(s.id, *f.req.Register)
			case kindUnregister:
				err = eng.Unregister(s.id, f.req.Predicate)
			case kindAppend:
				err = eng.Append(s.id, f.req.Events)
				appends++
			case kindClose:
				var st stream.SessionStats
				if st, _, err = eng.QueryUpdates(s.id); err == nil {
					flushes += st.Flushes
					var v stream.Verdict
					var preds []mux.Update
					v, preds, err = eng.ClosePredicates(s.id)
					r.checkClose(s, "engine", v.Possibly, preds)
				}
			}
			r.tr.end(sp)
			if err != nil {
				r.mismatches = append(r.mismatches, fmt.Sprintf("engine %s %s: %v", kindNames[f.kind], s.id, err))
			}
		}
	}
	took := cpuNow() - cpu0
	allocs, _ := a.since()
	var frames, batches uint64
	hw := 0
	for _, sh := range snap.Shards {
		frames += sh.Frames
		batches += sh.Batches
		hw = max(hw, sh.QueueHighWater)
	}
	rep.add("stream.engine.ns_per_event", r.perEvent(took), "ns", 0)
	rep.add("stream.engine.allocs_per_event", allocs/float64(r.events), "count", 0)
	rep.add("stream.engine.frames_per_batch", float64(frames)/float64(max(batches, 1)), "count", int(batches))
	rep.add("stream.engine.queue_high_water", float64(hw), "count", 0)
	rep.add("stream.engine.shed_frames", float64(snap.Dropped), "count", 0)
	fpf := float64(flushes) / float64(max(appends, 1))
	rep.note("stream.engine.replay_flushes_per_frame", fpf, "count", appends)
	every := 1
	if fpf > 0 && fpf < 1 {
		every = int(1/fpf + 0.5)
	}
	return r.perEvent(took), every
}

// checkClose compares a replay's close-time verdicts with the oracle's.
func (r *replay) checkClose(s *script, layer string, possibly bool, preds []mux.Update) {
	if !s.mux {
		if possibly != s.wantPossibly {
			r.mismatches = append(r.mismatches, fmt.Sprintf("%s replay %s: possibly=%v, gpd.Detect says %v", layer, s.id, possibly, s.wantPossibly))
		}
		return
	}
	if len(preds) != len(s.wantPreds) {
		r.mismatches = append(r.mismatches, fmt.Sprintf("%s replay %s: %d predicates at close, want %d", layer, s.id, len(preds), len(s.wantPreds)))
	}
	for _, u := range preds {
		if want, ok := s.wantPreds[u.ID]; !ok || want != u.Possibly || u.Err != "" {
			r.mismatches = append(r.mismatches, fmt.Sprintf("%s replay %s/%s: possibly=%v err=%q, gpd.Detect says %v", layer, s.id, u.ID, u.Possibly, u.Err, want))
		}
	}
}

// sessionLayer replays every script through a stream.Session (Step,
// Flush after every flushEvery-th append, Register/Unregister,
// Finalize): the single-threaded baseline of the whole stack below the
// engine. With a nil report it only times the replay.
func (r *replay) sessionLayer(rep *report, flushEvery int) float64 {
	var took time.Duration
	tr := r.tr
	if rep == nil {
		tr = nil
	}
	frameID := 0
	for _, s := range r.in.scripts {
		t0 := time.Now()
		sess, err := stream.NewSession(s.spec)
		if err != nil {
			r.mismatches = append(r.mismatches, "session: "+err.Error())
			continue
		}
		a := 0
		for _, f := range s.frames {
			frameID++
			switch f.kind {
			case kindRegister:
				sp := tr.begin("stream.session.register", frameID)
				err = sess.Register(r.registration(f.req.Register))
				tr.end(sp)
			case kindUnregister:
				sp := tr.begin("stream.session.unregister", frameID)
				err = sess.Unregister(f.req.Predicate)
				tr.end(sp)
			case kindAppend:
				sp := tr.begin("stream.session.step", frameID)
				for _, ev := range f.req.Events {
					if err = sess.Step(ev); err != nil {
						break
					}
				}
				tr.end(sp)
				if (a+1)%flushEvery == 0 {
					sp := tr.begin("stream.session.flush", frameID)
					sess.Flush()
					tr.end(sp)
				}
				a++
			}
			if err != nil {
				r.mismatches = append(r.mismatches, fmt.Sprintf("session %s %s: %v", kindNames[f.kind], s.id, err))
				break
			}
		}
		sess.Flush()
		v, err := sess.Finalize()
		took += time.Since(t0)
		if err != nil {
			r.mismatches = append(r.mismatches, fmt.Sprintf("session finalize %s: %v", s.id, err))
			continue
		}
		r.checkClose(s, "session", v.Possibly, sess.PredicateStates())
	}
	if rep != nil {
		rep.add("stream.session.ns_per_event", r.perEvent(took), "ns", 0)
	}
	return r.perEvent(took)
}

// deliveryLayer replays every script's arrival order through a bare
// mux.Delivery, recording the delivered order for the detector and
// slicer replays and the holdback depth after every event.
func (r *replay) deliveryLayer(rep *report) float64 {
	var took time.Duration
	var depths []int
	early := 0
	a := startAllocs()
	frameID := 0
	for _, s := range r.in.scripts {
		out := make([]stream.Event, 0, len(s.arrival))
		var after []int
		d := mux.NewDelivery(procs, func(ev detect.Event) { out = append(out, ev) })
		for _, f := range s.frames {
			frameID++
			if f.kind != kindAppend {
				continue
			}
			sp := r.tr.begin("mux.delivery.step", frameID)
			t0 := time.Now()
			for _, ev := range f.req.Events {
				before := d.Holdback()
				if err := d.Step(ev); err != nil {
					r.mismatches = append(r.mismatches, fmt.Sprintf("delivery %s: %v", s.id, err))
					break
				}
				hb := d.Holdback()
				if hb == before+1 {
					early++
				}
				depths = append(depths, hb)
			}
			took += time.Since(t0)
			r.tr.end(sp)
			after = append(after, len(out))
		}
		r.delivered[s] = out
		r.deliveredAfter[s] = after
	}
	allocs, _ := a.since()
	sort.Ints(depths)
	sum := 0
	for _, v := range depths {
		sum += v
	}
	n := len(depths)
	rep.add("mux.delivery.ns_per_event", r.perEvent(took), "ns", 0)
	rep.add("mux.delivery.allocs_per_event", allocs/float64(r.events), "count", 0)
	rep.add("mux.delivery.holdback_mean", float64(sum)/float64(n), "count", n)
	rep.add("mux.delivery.holdback_max", float64(depths[n-1]), "count", n)
	rep.add("mux.delivery.early_frac", float64(early)/float64(n), "frac", n)
	rep.text("shape holdback depth p50=%d p90=%d p99=%d max=%d; events arriving before a causal predecessor: %.1f%%",
		depths[n/2], depths[n*9/10], depths[n*99/100], depths[n-1], 100*float64(early)/float64(n))
	return r.perEvent(took)
}

// groupLayer replays every script through a bare mux.Group (Register,
// Step, Flush, Unregister, Stats). Routing is the group's time minus the
// delivery, detector and slicer replays.
func (r *replay) groupLayer(rep *report) float64 {
	var took, reg, unreg time.Duration
	var regs, unregs int
	var steps, skipped, sliceCompacted int64
	sliceRetained := 0
	frameID := 0
	for _, s := range r.in.scripts {
		t0 := time.Now()
		g := mux.NewGroup(procs)
		var err error
		if !s.mux {
			err = g.Register(r.sessionRegistration(s))
		}
		a := 0
		for _, f := range s.frames {
			frameID++
			switch f.kind {
			case kindRegister:
				sp := r.tr.begin("mux.group.register", frameID)
				t := time.Now()
				err = g.Register(r.registration(f.req.Register))
				reg += time.Since(t)
				r.tr.end(sp)
				regs++
			case kindUnregister:
				sp := r.tr.begin("mux.group.unregister", frameID)
				t := time.Now()
				err = g.Unregister(f.req.Predicate)
				unreg += time.Since(t)
				r.tr.end(sp)
				unregs++
			case kindAppend:
				sp := r.tr.begin("mux.group.step", frameID)
				for _, ev := range f.req.Events {
					if err = g.Step(ev); err != nil {
						break
					}
				}
				r.tr.end(sp)
				if r.flushAfter(a) {
					sp := r.tr.begin("mux.group.flush", frameID)
					g.Flush()
					r.tr.end(sp)
				}
				a++
			}
			if err != nil {
				r.mismatches = append(r.mismatches, fmt.Sprintf("group %s %s: %v", kindNames[f.kind], s.id, err))
				break
			}
		}
		g.Flush()
		took += time.Since(t0)
		st := g.Stats()
		steps += st.Steps
		skipped += st.Skipped
		sliceCompacted += st.SliceCompacted
		sliceRetained = max(sliceRetained, st.SliceRetained)
		if s.mux {
			r.checkClose(s, "group", false, g.States())
		}
	}
	rep.add("mux.group.steps_per_event", float64(steps)/float64(r.events), "count", 0)
	rep.add("mux.group.skipped_per_event", float64(skipped)/float64(r.events), "count", 0)
	rep.add("mux.group.register_us", us(reg)/float64(max(regs, 1)), "us", regs)
	rep.add("mux.group.unregister_us", us(unreg)/float64(max(unregs, 1)), "us", unregs)
	rep.text("shape steps/event=%.3f skipped/event=%.3f; group slicers retained %d at most, compacted %d events",
		float64(steps)/float64(r.events), float64(skipped)/float64(r.events), sliceRetained, sliceCompacted)
	return r.perEvent(took)
}

// detectorRun is one registration's life over a script's delivered
// events: the detector, its events (projected for var-routed ones) and
// the delivered-event interval it is stepped over.
type detectorRun struct {
	reg      mux.Registration
	from, to int // delivered-event interval [from, to)
}

// runsOf lists a script's registrations with their intervals.
func (r *replay) runsOf(s *script) []detectorRun {
	n := len(r.delivered[s])
	if !s.mux {
		return []detectorRun{{reg: r.sessionRegistration(s), from: 0, to: n}}
	}
	var runs []detectorRun
	live := make(map[string]int)
	pos, a := 0, 0
	for _, f := range s.frames {
		switch f.kind {
		case kindRegister:
			live[f.req.Register.ID] = len(runs)
			runs = append(runs, detectorRun{reg: r.registration(f.req.Register), from: pos, to: n})
		case kindUnregister:
			runs[live[f.req.Predicate]].to = pos
			delete(live, f.req.Predicate)
		case kindAppend:
			pos = r.deliveredAfter[s][a]
			a++
		}
	}
	return runs
}

// projection is one variable's delivered events with projected clocks,
// and their positions in the delivered order.
type projection struct {
	idx []int
	evs []stream.Event
}

// project returns the delivered events of variable v with clocks
// projected onto v's events: component q counts the v-events of process
// q at or below the original component (the renumbering the mux group
// applies before stepping var-routed detectors).
func project(delivered []stream.Event, v string) projection {
	var pj projection
	local := make([][]int64, procs)
	for _, ev := range delivered {
		if ev.Var == v {
			local[ev.Proc] = append(local[ev.Proc], ev.VC[ev.Proc])
		}
	}
	for i, ev := range delivered {
		if ev.Var != v {
			continue
		}
		pe := ev
		pe.VC = make([]int64, len(ev.VC))
		for q, c := range ev.VC {
			pe.VC[q] = int64(sort.Search(len(local[q]), func(k int) bool { return local[q][k] > c }))
		}
		pj.idx = append(pj.idx, i)
		pj.evs = append(pj.evs, pe)
	}
	return pj
}

// detectResult is the detector replays' split, in ns per event.
type detectResult struct {
	total float64            // every family
	self  map[string]float64 // detect.<family>.step / .flush
}

// detectLayers replays every registration's detector, one family at a
// time, stepping it on the events the group would route to it and
// flushing at the replays' flush points; var-routed detectors stop once
// latched, as in the group.
func (r *replay) detectLayers(rep *report) detectResult {
	res := detectResult{self: make(map[string]float64)}
	for _, fam := range detectFamilies {
		name := "detect." + fam.String()
		var step, flush time.Duration
		var windows, flushes int64
		tr := obs.NewTrace()
		a := startAllocs()
		for _, s := range r.in.scripts {
			delivered := r.delivered[s]
			// Flush points, as delivered-event positions.
			var points []int
			for i, pos := range r.deliveredAfter[s] {
				if r.flushAfter(i) {
					points = append(points, pos)
				}
			}
			points = append(points, len(delivered))
			cache := make(map[string]projection)
			for runIdx, run := range r.runsOf(s) {
				if run.reg.Spec.Family != fam {
					continue
				}
				entry, _ := detect.Lookup(fam, detect.ModalityPossibly)
				det, err := entry.New(run.reg.Spec, detect.Config{Procs: procs, Involved: run.reg.Involved, Init: run.reg.Init})
				if err != nil {
					r.mismatches = append(r.mismatches, fmt.Sprintf("%s new: %v", name, err))
					continue
				}
				if det.Possibly() && !run.reg.AllEvents {
					continue // latched at registration: the group never steps it
				}
				if t, ok := det.(detect.Traceable); ok {
					t.SetTrace(tr)
				}
				idx, evs := []int(nil), delivered
				if !run.reg.AllEvents {
					key := run.reg.Spec.Var
					if fam == pred.InFlight {
						key = detect.InFlightVar
					}
					pj, ok := cache[key]
					if !ok {
						pj = project(delivered, key)
						cache[key] = pj
					}
					idx, evs = pj.idx, pj.evs
				}
				k := 0 // next event of evs
				pos := func(k int) int {
					if idx == nil {
						return k
					}
					return idx[k]
				}
				for k < len(evs) && pos(k) < run.from {
					k++
				}
				for _, pt := range points {
					if pt <= run.from {
						continue
					}
					end := min(pt, run.to)
					sp := r.tr.begin(name+".step", runIdx)
					t0 := time.Now()
					stepped := false
					for ; k < len(evs) && pos(k) < end; k++ {
						if err := det.Step(evs[k]); err != nil {
							r.mismatches = append(r.mismatches, fmt.Sprintf("%s step: %v", name, err))
							break
						}
						stepped = true
					}
					step += time.Since(t0)
					r.tr.end(sp)
					if !stepped {
						if end >= run.to {
							break
						}
						continue
					}
					sp = r.tr.begin(name+".flush", runIdx)
					t0 = time.Now()
					latched := det.Flush()
					flush += time.Since(t0)
					r.tr.end(sp)
					flushes++
					windows += int64(det.Window())
					if (latched && !run.reg.AllEvents) || end >= run.to {
						break
					}
				}
			}
		}
		allocs, _ := a.since()
		rep.add(name+".step_ns_per_event", r.perEvent(step), "ns", 0)
		rep.add(name+".flush_ns_per_event", r.perEvent(flush), "ns", 0)
		rep.add(name+".allocs_per_event", allocs/float64(r.events), "count", 0)
		rep.add(name+".window_mean", float64(windows)/float64(max(flushes, 1)), "count", int(flushes))
		if fam == pred.Sum {
			rep.add("detect.sum.augmenting_paths_per_flush", float64(tr.Counter("maxflow.augmenting_paths"))/float64(max(flushes, 1)), "count", int(flushes))
			rep.add("detect.sum.graph_arcs_per_flush", float64(tr.Counter("maxflow.graph_arcs"))/float64(max(flushes, 1)), "count", int(flushes))
		}
		if flushes > 0 {
			rep.text("shape %s: %d flushes, window mean %.1f", name, flushes, float64(windows)/float64(flushes))
			res.self[name+".step"] = r.perEvent(step)
			res.self[name+".flush"] = r.perEvent(flush)
		}
		res.total += r.perEvent(step + flush)
	}
	return res
}

// slicingLayer replays the shared per-variable slicers of the sliced
// registrations: Observe on every delivered event with the variable's
// carried-forward truth, Compact at each flush point.
func (r *replay) slicingLayer(rep *report) float64 {
	var took time.Duration
	var observed, compacted int64
	retainedMax := 0
	for _, s := range r.in.scripts {
		vars := make(map[string]bool)
		for _, f := range s.frames[:s.setup] {
			if f.kind == kindRegister && f.req.Register.Slice {
				vars[r.spec(f.req.Register.Pred).Var] = true
			}
		}
		delivered := r.delivered[s]
		for v := range vars {
			sl := slicing.NewIncrementalSlicer(procs, nil)
			last := make([]bool, procs)
			i := 0
			points := append(append([]int(nil), r.deliveredAfter[s]...), len(delivered))
			for a, pos := range points {
				sp := r.tr.begin("slicing.observe", a)
				t0 := time.Now()
				for ; i < pos; i++ {
					ev := delivered[i]
					if ev.Var == v {
						last[ev.Proc] = ev.Truth
					}
					if err := sl.Observe(ev.Proc, ev.VC, last[ev.Proc]); err != nil {
						r.mismatches = append(r.mismatches, "slicer: "+err.Error())
						break
					}
				}
				if a == len(points)-1 || r.flushAfter(a) {
					sl.Compact()
				}
				took += time.Since(t0)
				r.tr.end(sp)
				retainedMax = max(retainedMax, sl.Retained())
			}
			observed += int64(len(delivered))
			compacted += sl.Compacted()
		}
	}
	rep.add("slicing.observe_ns_per_event", r.perEvent(took), "ns", 0)
	rep.add("slicing.retained_max", float64(retainedMax), "count", 0)
	rep.add("slicing.compacted_frac", float64(compacted)/float64(max(observed, 1)), "frac", int(observed))
	return r.perEvent(took)
}
