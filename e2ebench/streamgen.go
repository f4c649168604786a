package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// Stream workload inputs. Every frame is JSON-encoded here, before any
// timing, so the load generator only writes bytes and reads replies.
// Everything is a pure function of the seed.

const (
	procs       = 8  // processes per monitored computation
	frameEvents = 64 // events per append frame

	// sum-stream: gossiper traces sized so a session is ~20 frames and
	// the detector window holds a few hundred events.
	sumScripts     = 32
	sumSteps       = 120
	sumMsgPerMille = 250

	// mux-reorder: one long multiplexed session per script.
	muxScripts    = 4
	muxRounds     = 2400
	muxVars       = 32
	muxPreds      = 320
	muxLagEvents  = 600 // how far behind the lagging process's events arrive
	muxChurnEvery = 4   // append frames between churn steps
	muxChurnPreds = 2   // predicates unregistered and registered again per step
)

// Frame kinds.
const (
	kindOpen = iota
	kindAppend
	kindQuery
	kindClose
	kindRegister
	kindUnregister
)

var kindNames = [...]string{"open", "append", "query", "close", "register", "unregister"}

// frame is one pre-encoded request.
type frame struct {
	kind int
	wire []byte         // length-prefixed request bytes
	req  stream.Request // the same request, for the in-process layer replays
}

// script is one session's request sequence.
type script struct {
	id     string
	spec   stream.Spec
	frames []frame // open, initial registers, appends (with churn), close
	setup  int     // leading frames that belong to set-up (open + initial registers)
	query  frame   // the query the load generator sends after appends
	events int     // events appended over the session

	// arrival is every event in the order the script appends them.
	arrival []stream.Event

	// Expected close-time verdicts: the session's own (single-predicate
	// sessions) or every predicate registered at close (mux sessions).
	wantPossibly bool
	wantPreds    map[string]bool
	mux          bool
}

// streamInputs is a stream workload's prepared input: scripts assigned
// round-robin to connections.
type streamInputs struct {
	workload string
	scripts  []*script
	// conns[c] lists the scripts connection c runs, in order.
	conns [][]*script
	// rate is the open-loop offered load in events per second, summed
	// over connections.
	rate float64
	// oracles counts the distinct oracle detections computed.
	oracles int
}

// encode frames a request.
func encode(kind int, req stream.Request) frame {
	req.V = stream.ProtocolVersion
	var buf bytes.Buffer
	if err := stream.EncodeRequest(&buf, req); err != nil {
		panic(fmt.Sprintf("encode %s frame: %v", kindNames[kind], err)) // only a bug can make a request unencodable
	}
	return frame{kind: kind, wire: buf.Bytes(), req: req}
}

// shardOf mirrors the engine's FNV-1a session sharding, so each
// connection's sessions land on their own shard. A mismatch would only
// cost balance, never correctness.
func shardOf(id string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h) % shards
}

// sessionID picks a deterministic id of the given prefix that hashes to
// the connection's shard.
func sessionID(prefix string, conn int) string {
	for n := 0; ; n++ {
		id := fmt.Sprintf("%s.%d", prefix, n)
		if shardOf(id, engineShards) == conn%engineShards {
			return id
		}
	}
}

// appendFrames chunks events into append frames.
func appendFrames(id string, events []stream.Event) []frame {
	var out []frame
	for len(events) > 0 {
		n := min(frameEvents, len(events))
		out = append(out, encode(kindAppend, stream.Request{Type: "append", Session: id, Events: events[:n]}))
		events = events[n:]
	}
	return out
}

func finishScript(s *script) {
	s.frames = append(s.frames, encode(kindClose, stream.Request{Type: "close", Session: s.id}))
	s.query = encode(kindQuery, stream.Request{Type: "query", Session: s.id})
	s.events = len(s.arrival)
}

// genSumStream builds the sum-stream workload: back-to-back
// single-predicate sessions over gossiper traces streamed in causal
// order. Three sessions in four watch sum(level) == k, the fourth
// inflight >= k.
func genSumStream(seed int64) (*streamInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &streamInputs{workload: "sum-stream", conns: make([][]*script, connections), rate: sumStreamRate}
	for i := 0; i < sumScripts; i++ {
		c, err := gpd.NewSimulator(rng.Int63(), gpd.NewGossiperProcs(procs, sumSteps, sumMsgPerMille)).Run()
		if err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
		conn := i % connections
		s := &script{id: sessionID(fmt.Sprintf("sum-%d-%d", conn, i), conn)}
		var text string
		var init []int64
		if i%4 == 3 {
			text = fmt.Sprintf("inflight >= %d", 1+rng.Intn(4))
			s.arrival = stream.InFlightTrace(c)
		} else {
			text = fmt.Sprintf("sum(%s) == %d", gpd.VarLevel, rng.Intn(25)-12)
			s.arrival, init = stream.SumTrace(c, gpd.VarLevel)
		}
		ps, err := gpd.ParseSpec(text)
		if err != nil {
			return nil, err
		}
		rep, err := gpd.Detect(c, ps)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", text, err)
		}
		in.oracles++
		s.wantPossibly = rep.Holds
		s.spec = stream.Spec{Pred: text, Procs: procs, Init: init}
		s.frames = append(s.frames, encode(kindOpen, stream.Request{Type: "open", Session: s.id, Spec: &s.spec}))
		s.setup = 1
		s.frames = append(s.frames, appendFrames(s.id, s.arrival)...)
		finishScript(s)
		in.scripts = append(in.scripts, s)
		in.conns[conn] = append(in.conns[conn], s)
	}
	return in, nil
}

// muxTag is what one event of a multiplexed computation carries: the
// variable it sets and the new 0/1 value. Message events carry none.
type muxTag struct {
	v     string
	truth bool
}

// muxTrace is a generated multi-variable computation.
type muxTrace struct {
	c    *computation.Computation
	tags map[computation.EventID]muxTag
	vars []string
}

// genMuxTrace builds a random computation whose internal events each
// set one 0/1 variable (true one time in two) and whose message pairs
// carry causality only.
func genMuxTrace(rng *rand.Rand) *muxTrace {
	t := &muxTrace{c: computation.New(), tags: make(map[computation.EventID]muxTag)}
	for i := 0; i < muxVars; i++ {
		t.vars = append(t.vars, fmt.Sprintf("v%02d", i))
	}
	for p := 0; p < procs; p++ {
		t.c.AddProcess()
	}
	for i := 0; i < muxRounds; i++ {
		p := computation.ProcID(rng.Intn(procs))
		if rng.Intn(5) == 0 {
			q := computation.ProcID(rng.Intn(procs - 1))
			if q >= p {
				q++
			}
			send, recv := t.c.AddInternal(p), t.c.AddInternal(q)
			if err := t.c.AddMessage(send, recv); err != nil {
				panic(err) // fresh events on distinct processes always pair
			}
			continue
		}
		id := t.c.AddInternal(p)
		t.tags[id] = muxTag{v: t.vars[rng.Intn(muxVars)], truth: rng.Intn(2) == 0}
	}
	t.fillVars(t.c, nil)
	if err := t.c.Seal(); err != nil {
		panic(err)
	}
	return t
}

// fillVars writes carried-forward tables for every variable into dst,
// whose events map from the trace's through idmap (nil: dst is the
// trace's own computation). Values start false on every process.
func (t *muxTrace) fillVars(dst *computation.Computation, idmap map[computation.EventID]computation.EventID) {
	for p := 0; p < procs; p++ {
		cur := make(map[string]int64, len(t.vars))
		for _, id := range t.c.ProcEvents(computation.ProcID(p)) {
			dstID := id
			if idmap != nil {
				var ok bool
				if dstID, ok = idmap[id]; !ok {
					continue
				}
			}
			if tg, ok := t.tags[id]; ok {
				cur[tg.v] = 0
				if tg.truth {
					cur[tg.v] = 1
				}
			}
			for _, v := range t.vars {
				dst.SetVar(v, dstID, cur[v])
			}
		}
	}
}

// suffix returns the computation of the events above the consistent cut
// r (r[p] events of process p executed), with every variable false in
// the new initial states: exactly what a predicate registered at r with
// all-false initial values observes.
func (t *muxTrace) suffix(r []int) *computation.Computation {
	c := computation.New()
	idmap := make(map[computation.EventID]computation.EventID)
	for p := 0; p < procs; p++ {
		c.AddProcess()
		for _, id := range t.c.ProcEvents(computation.ProcID(p)) {
			if e := t.c.Event(id); e.Index > r[p] {
				idmap[id] = c.AddInternal(computation.ProcID(p))
			}
		}
	}
	for _, m := range t.c.Messages() {
		s, okS := idmap[m.Send]
		rv, okR := idmap[m.Receive]
		if okS && okR {
			if err := c.AddMessage(s, rv); err != nil {
				panic(err)
			}
		}
	}
	t.fillVars(c, idmap)
	if err := c.Seal(); err != nil {
		panic(err)
	}
	return c
}

// events returns the trace's events in topological order, tagged.
func (t *muxTrace) events() []stream.Event {
	var out []stream.Event
	for _, id := range t.c.Topo() {
		e := t.c.Event(id)
		if e.IsInitial() {
			continue
		}
		clk := t.c.Clock(id)
		vc := make([]int64, len(clk))
		for q, v := range clk {
			if v >= 1 {
				vc[q] = int64(v) - 1
			}
		}
		ev := stream.Event{Proc: int(e.Proc), VC: vc}
		if tg, ok := t.tags[id]; ok {
			ev.Var, ev.Truth = tg.v, tg.truth
		}
		out = append(out, ev)
	}
	return out
}

// lagArrival delays every event of process lag by muxLagEvents
// positions. Each process's events keep their local order, but events
// that depend on the lagging process now arrive before their causal
// predecessors and wait in the session's holdback buffer.
func lagArrival(events []stream.Event, lag int) []stream.Event {
	type keyed struct {
		key int
		ev  stream.Event
	}
	ks := make([]keyed, len(events))
	for i, ev := range events {
		ks[i] = keyed{key: i, ev: ev}
		if ev.Proc == lag {
			ks[i].key += muxLagEvents
		}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	out := make([]stream.Event, len(ks))
	for i, k := range ks {
		out[i] = k.ev
	}
	return out
}

// deliveredCut returns the cut causal delivery has reached once the
// given events have arrived: the largest consistent cut inside the
// per-process arrived prefixes. It is computed as a fixpoint over the
// events' clocks, independently of the serving stack's holdback code.
func deliveredCut(arrived []stream.Event) []int {
	byProc := make([][]stream.Event, procs)
	for _, ev := range arrived {
		byProc[ev.Proc] = append(byProc[ev.Proc], ev)
	}
	cut := make([]int, procs)
	for p := range cut {
		cut[p] = len(byProc[p])
	}
	for changed := true; changed; {
		changed = false
		for p := range cut {
			for cut[p] > 0 {
				vc := byProc[p][cut[p]-1].VC
				ok := true
				for q, v := range vc {
					if q != p && v > int64(cut[q]) {
						ok = false
						break
					}
				}
				if ok {
					break
				}
				cut[p]--
				changed = true
			}
		}
	}
	return cut
}

// muxPredText returns the i-th registration's predicate: all, count,
// xor and levels families over the 32 variables.
func muxPredText(i int, rng *rand.Rand, vars []string) string {
	v := vars[i%len(vars)]
	switch (i / len(vars)) % 4 {
	case 0:
		return fmt.Sprintf("all(%s)", v)
	case 1:
		return fmt.Sprintf("count(%s) >= %d", v, 3+rng.Intn(procs-2))
	case 2:
		return fmt.Sprintf("xor(%s)", v)
	default:
		a := 2 + rng.Intn(procs-2)
		return fmt.Sprintf("levels(%s): %d, %d", v, a, a+1)
	}
}

// genMuxReorder builds the mux-reorder workload: one multiplexed
// session per script with several hundred predicates, one lagging
// process, and predicates unregistered and registered again mid-stream.
func genMuxReorder(seed int64) (*streamInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &streamInputs{workload: "mux-reorder", conns: make([][]*script, connections), rate: muxReorderRate}
	for i := 0; i < muxScripts; i++ {
		conn := i % connections
		tr := genMuxTrace(rng)
		s := &script{id: sessionID(fmt.Sprintf("mux-%d-%d", conn, i), conn), mux: true, wantPreds: make(map[string]bool)}
		s.spec = stream.Spec{Mux: true, Procs: procs}
		s.arrival = lagArrival(tr.events(), rng.Intn(procs))
		s.frames = append(s.frames, encode(kindOpen, stream.Request{Type: "open", Session: s.id, Spec: &s.spec}))

		type live struct {
			id, text string
			sliced   bool
			at       []int // registration cut; nil = before the first event
		}
		var preds []*live
		slicedAll := 0
		for j := 0; j < muxPreds; j++ {
			text := muxPredText(j, rng, tr.vars)
			p := &live{id: fmt.Sprintf("p%03d", j), text: text}
			if (j/len(tr.vars))%4 == 0 && j%8 == 0 {
				p.sliced = true // one all() registration in eight keeps a slice
				slicedAll++
			}
			reg := &stream.RegisterSpec{ID: p.id, Tenant: fmt.Sprintf("tenant-%d", j%4), Pred: text, Slice: p.sliced}
			s.frames = append(s.frames, encode(kindRegister, stream.Request{Type: "register", Session: s.id, Register: reg}))
			preds = append(preds, p)
		}
		s.setup = len(s.frames)

		appends := appendFrames(s.id, s.arrival)
		gen := 0
		for k, f := range appends {
			s.frames = append(s.frames, f)
			if (k+1)%muxChurnEvery != 0 || k == len(appends)-1 {
				continue
			}
			cut := deliveredCut(s.arrival[:min((k+1)*frameEvents, len(s.arrival))])
			for n := 0; n < muxChurnPreds; n++ {
				victim := rng.Intn(len(preds))
				for preds[victim].sliced {
					victim = rng.Intn(len(preds))
				}
				old := preds[victim]
				gen++
				p := &live{id: fmt.Sprintf("%s.r%d", old.id[:4], gen), text: old.text, at: cut}
				s.frames = append(s.frames, encode(kindUnregister, stream.Request{Type: "unregister", Session: s.id, Predicate: old.id}))
				reg := &stream.RegisterSpec{ID: p.id, Tenant: "tenant-churn", Pred: p.text, Init: make([]int64, procs)}
				s.frames = append(s.frames, encode(kindRegister, stream.Request{Type: "register", Session: s.id, Register: reg}))
				preds[victim] = p
			}
		}
		// Oracles: one gpd.Detect per distinct (computation, predicate).
		suffixes := make(map[string]*computation.Computation)
		jobs := make([]oracleJob, len(preds))
		for k, p := range preds {
			c := tr.c
			if p.at != nil {
				key := fmt.Sprint(p.at)
				if suffixes[key] == nil {
					suffixes[key] = tr.suffix(p.at)
				}
				c = suffixes[key]
			}
			jobs[k] = oracleJob{c: c, text: p.text}
		}
		if err := runOracles(jobs); err != nil {
			return nil, err
		}
		for k, p := range preds {
			s.wantPreds[p.id] = jobs[k].holds
		}
		in.oracles += len(jobs)
		finishScript(s)
		in.scripts = append(in.scripts, s)
		in.conns[conn] = append(in.conns[conn], s)
	}
	return in, nil
}

// oracleJob is one offline detection whose verdict a stream run must
// reproduce.
type oracleJob struct {
	c     *computation.Computation
	text  string
	holds bool
	err   error
}

// runOracles runs gpd.Detect for every job on a worker per CPU.
func runOracles(jobs []oracleJob) error {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				j := &jobs[k]
				ps, err := gpd.ParseSpec(j.text)
				if err == nil {
					var rep gpd.Report
					rep, err = gpd.Detect(j.c, ps)
					j.holds = rep.Holds
				}
				j.err = err
			}
		}()
	}
	for k := range jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			return fmt.Errorf("oracle %q: %w", j.text, j.err)
		}
	}
	return nil
}
