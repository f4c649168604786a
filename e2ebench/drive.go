package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/distributed-predicates/gpd/internal/stream"
)

// Load shape: two shards, at most two client connections, lossless
// backpressure. Open-loop rates are about a ninth of each workload's
// closed-loop events_per_s at the commit that introduced the benchmark:
// every append is followed by a query, which forces a flush, and at
// higher rates queueing makes the latencies swing with whatever else
// the machine runs.
const (
	connections   = 2
	engineShards  = 2
	pipelineDepth = 16 // closed-loop frames in flight per connection
	replyTimeout  = 20 * time.Second
	queryEvery    = 1 // open loop: a verdict query follows every queryEvery-th append
	setupRounds   = 31

	// Each stream run splits its time into phaseRounds saturation rounds
	// (saturationShare of it) and phaseRounds open-loop rounds.
	phaseRounds     = 10
	saturationShare = 0.4

	sumStreamRate  = 12000.0
	muxReorderRate = 6000.0
)

// benchConfig is the engine under test.
func benchConfig() stream.Config {
	return stream.Config{Shards: engineShards, Policy: stream.Backpressure}
}

// harness is a running engine, its TCP server and the client
// connections.
type harness struct {
	eng   *stream.Engine
	srv   *stream.Server
	conns []*wireConn
}

type wireConn struct {
	nc net.Conn
	br *bufio.Reader
}

// send writes one pre-encoded frame.
func (c *wireConn) send(b []byte) error {
	if err := c.nc.SetWriteDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	_, err := c.nc.Write(b)
	return err
}

// recv reads one reply.
func (c *wireConn) recv() (stream.Response, error) {
	if err := c.nc.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return stream.Response{}, err
	}
	return stream.DecodeResponse(c.br)
}

// startHarness starts the engine and server, connects, and opens every
// connection's first session: the workload's set-up, whose duration it
// returns. It then registers those sessions' initial predicates and
// returns that duration apart. The registrations are hundreds of
// synchronous round trips whose time follows the host's scheduling
// latency more than the code; their CPU is part of every saturation
// round, where each script registers its predicates again.
func startHarness(in *streamInputs, cfg stream.Config) (h *harness, setup, register time.Duration, err error) {
	t0 := time.Now()
	h = &harness{eng: stream.NewEngine(cfg)}
	srv, err := stream.ListenAndServe("127.0.0.1:0", h.eng)
	if err != nil {
		h.eng.Shutdown()
		return nil, 0, 0, err
	}
	h.srv = srv
	for range in.conns {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			h.close()
			return nil, 0, 0, err
		}
		h.conns = append(h.conns, &wireConn{nc: nc, br: bufio.NewReader(nc)})
	}
	send := func(from, to int) error {
		for c, scripts := range in.conns {
			for _, f := range scripts[0].frames[from:to] {
				if err := h.conns[c].send(f.wire); err != nil {
					return err
				}
			}
		}
		for c, scripts := range in.conns {
			for range scripts[0].frames[from:to] {
				resp, err := h.conns[c].recv()
				if err == nil && !resp.OK {
					err = errors.New(resp.Error)
				}
				if err != nil {
					return fmt.Errorf("set-up of %s: %w", scripts[0].id, err)
				}
			}
		}
		return nil
	}
	if err := send(0, 1); err != nil { // open
		h.close()
		return nil, 0, 0, err
	}
	setup = time.Since(t0)
	t1 := time.Now()
	if err := send(1, in.conns[0][0].setup); err != nil { // initial registrations
		h.close()
		return nil, 0, 0, err
	}
	return h, setup, time.Since(t1), nil
}

// close drops the connections and stops the server and engine, waiting
// for every goroutine they started.
func (h *harness) close() {
	for _, c := range h.conns {
		c.nc.Close()
	}
	if h.srv != nil {
		h.srv.Close()
	}
	h.eng.Shutdown()
}

// pending is one request awaiting its reply.
type pending struct {
	s       *script
	kind    int
	verdict bool // a query sent right after an append (open loop)
	due     time.Time
	frame   int
}

// outcome accumulates one phase's counters.
type outcome struct {
	attempted, failed int64
	events            int64
	appendFrames      int64
	flushes           int64
	closes            int64
	appendLat         latencies
	verdictLat        latencies
	appendDue         []time.Time // due time of each appendLat sample
	verdictDue        []time.Time // due time of each verdictLat sample
	lag               latencies
	mismatches        []string
	errors            []string
}

func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.events += p.events
	o.appendFrames += p.appendFrames
	o.flushes += p.flushes
	o.closes += p.closes
	o.appendLat = append(o.appendLat, p.appendLat...)
	o.appendDue = append(o.appendDue, p.appendDue...)
	o.verdictDue = append(o.verdictDue, p.verdictDue...)
	o.verdictLat = append(o.verdictLat, p.verdictLat...)
	o.lag = append(o.lag, p.lag...)
	o.mismatches = append(o.mismatches, p.mismatches...)
	o.errors = append(o.errors, p.errors...)
}

// fail counts a failed request, keeping the first few reasons.
func (o *outcome) fail(reason string) {
	o.failed++
	if len(o.errors) < 5 {
		o.errors = append(o.errors, reason)
	}
}

// check accounts one reply and verifies close-time verdicts.
func (o *outcome) check(p pending, resp stream.Response) {
	if !resp.OK {
		o.fail(fmt.Sprintf("%s %s: %s", kindNames[p.kind], p.s.id, resp.Error))
		return
	}
	switch p.kind {
	case kindAppend:
		o.appendFrames++
	case kindQuery:
		if !p.verdict && resp.Stats != nil {
			o.flushes += int64(resp.Stats.Flushes)
		}
	case kindClose:
		o.closes++
		o.events += int64(p.s.events)
		o.checkVerdict(p.s, resp)
	}
}

func (o *outcome) checkVerdict(s *script, resp stream.Response) {
	if resp.Verdict == nil {
		o.mismatches = append(o.mismatches, s.id+": close reply without verdict")
		return
	}
	if !s.mux {
		if resp.Verdict.Possibly != s.wantPossibly {
			o.mismatches = append(o.mismatches, fmt.Sprintf("%s (%s): server says possibly=%v, gpd.Detect says %v",
				s.id, s.spec.Pred, resp.Verdict.Possibly, s.wantPossibly))
		}
		return
	}
	if len(resp.Predicates) != len(s.wantPreds) {
		o.mismatches = append(o.mismatches, fmt.Sprintf("%s: %d predicates at close, want %d", s.id, len(resp.Predicates), len(s.wantPreds)))
	}
	for _, u := range resp.Predicates {
		want, ok := s.wantPreds[u.ID]
		switch {
		case !ok:
			o.mismatches = append(o.mismatches, fmt.Sprintf("%s: unexpected predicate %s at close", s.id, u.ID))
		case u.Err != "":
			o.fail(fmt.Sprintf("%s/%s: %s", s.id, u.ID, u.Err))
		case u.Possibly != want:
			o.mismatches = append(o.mismatches, fmt.Sprintf("%s/%s: server says possibly=%v, gpd.Detect says %v", s.id, u.ID, u.Possibly, want))
		}
	}
}

// scriptFrames lists the frames a script sends from frame start on:
// the script's own frames with a query before the close and, when
// queryEach is set, a verdict query after every queryEvery-th append.
func scriptFrames(s *script, start int, queryEach bool) []pending {
	var out []pending
	appends := 0
	for i, f := range s.frames[start:] {
		if f.kind == kindClose {
			out = append(out, pending{s: s, kind: kindQuery, frame: -1})
		}
		out = append(out, pending{s: s, kind: f.kind, frame: start + i})
		if f.kind == kindAppend {
			appends++
			if queryEach && appends%queryEvery == 0 {
				out = append(out, pending{s: s, kind: kindQuery, verdict: true, frame: -1})
			}
		}
	}
	return out
}

func (p pending) wire() []byte {
	if p.frame < 0 {
		return p.s.query.wire
	}
	return p.s.frames[p.frame].wire
}

// saturate runs the closed-loop phase: each connection streams its
// scripts back to back with pipelineDepth frames in flight until d has
// passed, then finishes its current script. Events count when their
// session's close reply arrives. opened says the harness set-up already
// sent each connection's first script's set-up frames.
func saturate(h *harness, in *streamInputs, d time.Duration, opened bool, tr *tracer) (*outcome, time.Duration) {
	total := &outcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	var last time.Time
	for c := range in.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outcome{}
			wc := h.conns[c]
			scripts := in.conns[c]
			var inflight []pending
			var sent []time.Time
			read := func() bool {
				resp, err := wc.recv()
				p := inflight[0]
				if err != nil {
					for range inflight {
						o.fail("reply: " + err.Error())
					}
					inflight = nil
					return false
				}
				tr.record("loadgen."+kindNames[p.kind], p.frame, sent[0], time.Now())
				inflight, sent = inflight[1:], sent[1:]
				o.check(p, resp)
				return true
			}
		loop:
			for i := 0; ; i++ {
				s := scripts[i%len(scripts)]
				start := 0
				if i == 0 && opened {
					start = s.setup
				}
				for _, p := range scriptFrames(s, start, false) {
					if len(inflight) == pipelineDepth && !read() {
						break loop
					}
					o.attempted++
					if err := wc.send(p.wire()); err != nil {
						o.fail("send: " + err.Error())
						break loop
					}
					inflight = append(inflight, p)
					sent = append(sent, time.Now())
				}
				for len(inflight) > 0 {
					if !read() {
						break loop
					}
				}
				if time.Since(t0) >= d {
					break
				}
			}
			end := time.Now()
			mu.Lock()
			total.merge(o)
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total, last.Sub(t0)
}

// openLoop runs the fixed-rate phase: each connection's writer sends an
// append frame every frameEvents/(rate/connections) seconds, each
// followed by a query, whatever the replies do; the reader times every
// reply from its frame's due time. New scripts start until d has passed;
// the running ones finish.
func openLoop(h *harness, in *streamInputs, d time.Duration, tr *tracer) *outcome {
	total := &outcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) * frameEvents / (in.rate / float64(len(in.conns))))
	t0 := time.Now()
	writers := make([]*outcome, len(in.conns))
	for c := range in.conns {
		// The queue bounds the requests in flight on one connection; a
		// stalled server fills it and then blocks the writer, which shows
		// as generator lag.
		queue := make(chan pending, 4096)
		wg.Add(2)
		wo := &outcome{}
		writers[c] = wo
		go func(c int) {
			defer wg.Done()
			defer close(queue)
			wc := h.conns[c]
			scripts := in.conns[c]
			k := 0
			due := t0
			for i := 0; time.Since(t0) < d; i++ {
				for _, p := range scriptFrames(scripts[i%len(scripts)], 0, true) {
					if p.kind == kindAppend {
						due = t0.Add(time.Duration(k) * interval)
						k++
						if wait := time.Until(due); wait > 0 {
							time.Sleep(wait)
						}
						wo.lag = append(wo.lag, time.Since(due))
					}
					p.due = due
					queue <- p
					wo.attempted++
					if err := wc.send(p.wire()); err != nil {
						wo.fail("send: " + err.Error())
						return
					}
				}
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			o := &outcome{}
			wc := h.conns[c]
			broken := false
			for p := range queue {
				if broken {
					o.fail("reply: connection broken")
					continue
				}
				resp, err := wc.recv()
				now := time.Now()
				if err != nil {
					o.fail("reply: " + err.Error())
					broken = true
					continue
				}
				tr.record("loadgen."+kindNames[p.kind], p.frame, p.due, now)
				switch {
				case p.kind == kindAppend:
					o.appendLat = append(o.appendLat, now.Sub(p.due))
					o.appendDue = append(o.appendDue, p.due)
				case p.verdict:
					o.verdictLat = append(o.verdictLat, now.Sub(p.due))
					o.verdictDue = append(o.verdictDue, p.due)
				}
				o.check(p, resp)
			}
			if broken {
				wc.nc.Close() // unblock a writer stuck on a dead peer
			}
			mu.Lock()
			total.merge(o)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	for _, wo := range writers {
		total.merge(wo)
	}
	return total
}
