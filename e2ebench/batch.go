package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// batch-detect: a fixed mix of gpd.Detect queries on sealed simulator
// and gen traces, run one after another by a single caller at default
// parallelism. Inputs are JSON traces; set-up reads and seals them.

// Trace pool per seed: medium traces for the polynomial kernels, small
// ones for lattice reachability. Two medium traces per small one keep
// the latency median inside the medium queries' cluster rather than in
// the gap between the two sizes.
const (
	batchSmallTraces  = 2 // of each generator
	batchMediumTraces = 4
)

// batchTrace is one serialized input trace.
type batchTrace struct {
	name   string
	json   []byte
	small  bool
	events int
}

// batchQuery is one query of the mix.
type batchQuery struct {
	label    string // <family>.<modality> or slice.possibly
	trace    int    // index into the trace pool
	text     string
	spec     gpd.Spec
	modality gpd.Modality
	slice    bool
	want     bool
	oracle   string // "lattice" or "replay"
}

type batchInputs struct {
	traces  []batchTrace
	queries []batchQuery
}

// batchKinds is the mix: every family and modality the batch kernels
// serve, with the trace size each runs on. Definitely and cnf queries
// run on small traces, where lattice reachability stays cheap.
var batchKinds = []struct {
	label, tmpl string
	modality    gpd.Modality
	small       bool
	slice       bool
}{
	{"sum.possibly", "sum(level) == %d", gpd.ModalityPossibly, false, false},
	{"sum.possibly", "sum(level) >= %d", gpd.ModalityPossibly, false, false},
	{"sum.definitely", "sum(level) == %d", gpd.ModalityDefinitely, true, false},
	{"sum.definitely", "sum(level) >= %d", gpd.ModalityDefinitely, true, false},
	{"conjunctive.possibly", "all(flag)", gpd.ModalityPossibly, false, false},
	{"conjunctive.definitely", "all(flag)", gpd.ModalityDefinitely, true, false},
	{"levels.possibly", "levels(flag): %d, %d", gpd.ModalityPossibly, false, false},
	{"levels.definitely", "levels(flag): %d, %d", gpd.ModalityDefinitely, true, false},
	{"count.possibly", "count(flag) >= %d", gpd.ModalityPossibly, false, false},
	{"equilevel.possibly", "equilevel(flag): %d", gpd.ModalityPossibly, true, false},
	{"equilevel.definitely", "equilevel(flag): %d", gpd.ModalityDefinitely, true, false},
	{"cnf.possibly", "cnf(flag): (0 | !1) & (2 | 3)", gpd.ModalityPossibly, true, false},
	{"inflight.possibly", "inflight >= %d", gpd.ModalityPossibly, false, false},
	{"slice.possibly", "all(flag)", gpd.ModalityPossibly, false, true},
}

// genBatch builds the trace pool and the query mix, and decides every
// query's expected verdict by a second route.
func genBatch(seed int64) (*batchInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &batchInputs{}
	var comps []*computation.Computation
	add := func(name string, c *computation.Computation, small bool) error {
		var buf bytes.Buffer
		if err := gpd.WriteTrace(&buf, c); err != nil {
			return err
		}
		in.traces = append(in.traces, batchTrace{name: name, json: buf.Bytes(), small: small, events: c.NumEvents()})
		comps = append(comps, c)
		return nil
	}
	for i := 0; i < batchSmallTraces+batchMediumTraces; i++ {
		small := i < batchSmallTraces
		n, steps := 8, 60
		if small {
			n, steps = 4, 5
		}
		c, err := gpd.NewSimulator(rng.Int63(), gpd.NewGossiperProcs(n, steps, 250)).Run()
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("gossip-%d", i), c, small); err != nil {
			return nil, err
		}
		g := gen.Random(gen.Params{Seed: rng.Int63(), Procs: n, Events: steps, MsgFrac: 0.15})
		gen.UnitStepVar(rng.Int63(), g, "level")
		gen.BoolVar(rng.Int63(), g, "flag", 0.4)
		for p := 0; p < n; p++ {
			// Boolean variables read false in initial states; say so in
			// the trace too, which the replay route insists on.
			g.SetVar("flag", g.Initial(computation.ProcID(p)).ID, 0)
		}
		if err := add(fmt.Sprintf("gen-%d", i), g, small); err != nil {
			return nil, err
		}
	}
	for ti := range in.traces {
		for _, k := range batchKinds {
			if in.traces[ti].small != k.small {
				continue
			}
			c := comps[ti]
			text := k.tmpl
			switch {
			case k.label == "levels.possibly" || k.label == "levels.definitely":
				a := rng.Intn(c.NumProcs())
				text = fmt.Sprintf(k.tmpl, a, a+1)
			case k.label == "equilevel.possibly" || k.label == "equilevel.definitely":
				text = fmt.Sprintf(k.tmpl, rng.Intn(c.NumEvents()-c.NumProcs()+1))
			case k.label == "count.possibly":
				text = fmt.Sprintf(k.tmpl, 1+rng.Intn(c.NumProcs()))
			case k.label == "inflight.possibly":
				text = fmt.Sprintf(k.tmpl, 1+rng.Intn(3))
			case k.label == "sum.possibly" || k.label == "sum.definitely":
				text = fmt.Sprintf(k.tmpl, rng.Intn(7)-3)
			}
			ps, err := gpd.ParseSpec(text)
			if err != nil {
				return nil, err
			}
			q := batchQuery{label: k.label, trace: ti, text: text, spec: ps, modality: k.modality, slice: k.slice}
			if err := q.decide(c, in.traces[ti].small); err != nil {
				return nil, fmt.Errorf("oracle for %s on %s: %w", text, in.traces[ti].name, err)
			}
			in.queries = append(in.queries, q)
		}
	}
	return in, nil
}

// decide computes the query's expected verdict by a second route: the
// exhaustive lattice on the small traces, the streaming detector
// replayed over a linearization on the others.
func (q *batchQuery) decide(c *computation.Computation, small bool) error {
	if small {
		q.oracle = "lattice"
		holds := func(c *computation.Computation, k computation.Cut) bool { return evalAt(c, q.spec, k) }
		if q.modality == gpd.ModalityDefinitely {
			q.want = gpd.DefinitelyGeneric(c, holds)
		} else {
			q.want, _ = gpd.PossiblyGeneric(c, holds)
		}
		return nil
	}
	q.oracle = "replay"
	rep, err := gpd.Detect(c, q.spec, gpd.WithModality(q.modality), gpd.WithStrategy(gpd.StrategyReplay))
	if err != nil {
		return err
	}
	q.want = rep.Holds
	return nil
}

// evalAt evaluates a predicate at one cut, straight from its definition:
// the reference the exhaustive lattice oracle checks every cut with.
// Boolean variables read false in initial states, as the detectors
// define them.
func evalAt(c *computation.Computation, s gpd.Spec, k computation.Cut) bool {
	truth := func(p int) bool {
		return k[p] > 0 && c.Var(s.Var, c.EventAt(computation.ProcID(p), k[p]).ID) != 0
	}
	trueCount := func() int64 {
		n := int64(0)
		for p := range k {
			if truth(p) {
				n++
			}
		}
		return n
	}
	switch s.Family {
	case pred.Conjunctive:
		return trueCount() == int64(len(k))
	case pred.Sum:
		return relop(s.Rel, c.SumVar(s.Var, k), s.K)
	case pred.Count:
		return relop(s.Rel, trueCount(), s.K)
	case pred.Xor:
		return trueCount()%2 == 1
	case pred.Levels:
		n := int(trueCount())
		for _, l := range s.Levels {
			if l == n {
				return true
			}
		}
		return false
	case pred.Equilevel:
		level := 0
		for _, v := range k {
			level += v
		}
		return trueCount() == int64(len(k)) && int64(level) == s.K
	case pred.InFlight:
		n := int64(0)
		for _, m := range c.Messages() {
			send, recv := c.Event(m.Send), c.Event(m.Receive)
			if send.Index <= k[send.Proc] && recv.Index > k[recv.Proc] {
				n++
			}
		}
		return relop(s.Rel, n, s.K)
	case pred.CNF:
		for _, cl := range s.Clauses {
			sat := false
			for _, l := range cl {
				if truth(l.Proc) != l.Negated {
					sat = true
					break
				}
			}
			if !sat {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("evalAt: family %v is not in the batch mix", s.Family))
}

func relop(r relsum.Relop, a, b int64) bool {
	switch r {
	case relsum.Eq:
		return a == b
	case relsum.Ge:
		return a >= b
	case relsum.Le:
		return a <= b
	case relsum.Gt:
		return a > b
	case relsum.Lt:
		return a < b
	}
	panic(fmt.Sprintf("relop: unknown operator %v", r))
}

// readTraces is the batch set-up: read and seal every input trace.
func readTraces(in *batchInputs) ([]*computation.Computation, time.Duration, error) {
	t0 := time.Now()
	out := make([]*computation.Computation, len(in.traces))
	for i, t := range in.traces {
		c, err := gpd.ReadTrace(bytes.NewReader(t.json))
		if err != nil {
			return nil, 0, fmt.Errorf("read %s: %w", t.name, err)
		}
		out[i] = c
	}
	return out, time.Since(t0), nil
}

// detect runs one query of the mix.
func (q *batchQuery) detect(c *computation.Computation, tr *gpd.Trace) (bool, error) {
	opts := []gpd.Option{gpd.WithModality(q.modality)}
	if q.slice {
		opts = append(opts, gpd.WithStrategy(gpd.StrategySlice))
	}
	if tr != nil {
		opts = append(opts, gpd.WithTrace(tr))
	}
	rep, err := gpd.Detect(c, q.spec, opts...)
	return rep.Holds, err
}

// batchPass runs the whole mix once, recording each query's latency and
// checking its verdict.
func batchPass(in *batchInputs, comps []*computation.Computation, o *outcome, lat *latencies, byLabel map[string]latencies, tr func(q *batchQuery) *gpd.Trace) {
	for i := range in.queries {
		q := &in.queries[i]
		o.attempted++
		var qt *gpd.Trace
		if tr != nil {
			qt = tr(q)
		}
		t0 := time.Now()
		got, err := q.detect(comps[q.trace], qt)
		d := time.Since(t0)
		if err != nil {
			o.fail(fmt.Sprintf("%s on %s: %v", q.text, in.traces[q.trace].name, err))
			continue
		}
		*lat = append(*lat, d)
		if byLabel != nil {
			byLabel[q.label] = append(byLabel[q.label], d)
		}
		o.events += int64(in.traces[q.trace].events)
		if got != q.want {
			o.mismatches = append(o.mismatches, fmt.Sprintf("%s %s on %s: gpd.Detect says %v, %s oracle says %v",
				q.text, q.modality, in.traces[q.trace].name, got, q.oracle, q.want))
		}
	}
}

// measureBatchSetup reads the traces setupRounds times and returns the
// last set with the median time.
func measureBatchSetup(in *batchInputs) ([]*computation.Computation, float64, error) {
	var took []float64
	var comps []*computation.Computation
	for i := 0; i < setupRounds; i++ {
		c, d, err := readTraces(in)
		if err != nil {
			return nil, 0, err
		}
		comps = c
		took = append(took, d.Seconds())
	}
	return comps, median(took), nil
}

func runBatch(seed int64, d time.Duration, traced bool) (*report, result, error) {
	in, err := genBatch(seed)
	if err != nil {
		return nil, result{}, err
	}
	if traced {
		return traceBatch(in, d)
	}
	comps, setup, err := measureBatchSetup(in)
	if err != nil {
		return nil, result{}, err
	}
	// phaseRounds rounds of whole passes over the mix; rates and p50s
	// are medians over the rounds, p99s over every sample.
	o := &outcome{}
	var all latencies
	var rates, cpus, dps, p50, peaks []float64
	passes := 0
	for k := 0; k < phaseRounds; k++ {
		var lat latencies
		before := o.events
		heap := startHeapSampler()
		cpu0 := cpuNow()
		t0 := time.Now()
		for n := 0; n == 0 || time.Since(t0) < d/phaseRounds; n++ {
			batchPass(in, comps, o, &lat, nil, nil)
			passes++
		}
		elapsed := time.Since(t0)
		cpus = append(cpus, float64(cpuNow()-cpu0)/float64(time.Microsecond)/float64(max(o.events-before, 1)))
		peaks = append(peaks, heap.finish())
		var busy time.Duration
		for _, l := range lat {
			busy += l
		}
		rates = append(rates, float64(o.events-before)/busy.Seconds())
		dps = append(dps, float64(len(lat))/elapsed.Seconds())
		p50 = append(p50, ms(lat.quantile(0.50)))
		all = append(all, lat...)
	}
	rep := newReport()
	rep.text("# batch-detect: %d traces, %d queries per pass, %d passes", len(in.traces), len(in.queries), passes)
	rep.text("# rates and p50s are medians over %d rounds; p99s are over every sample", phaseRounds)
	rep.add("setup_s", setup, "s", setupRounds)
	rep.note("events_per_s", median(rates), "1/s", len(all))
	rep.add("cpu_us_per_event", median(cpus), "us", len(all))
	rep.note("verdict_p50_ms", median(p50), "ms", len(all))
	rep.note("verdict_p99_ms", ms(all.quantile(0.99)), "ms", len(all))
	rep.add("heap_peak_mb", median(peaks), "MiB", 0)
	rep.note("detections_per_s", median(dps), "1/s", len(all))
	rep.note("detect_p50_ms", median(p50), "ms", len(all))
	rep.note("detect_p99_ms", ms(all.quantile(0.99)), "ms", len(all))
	rep.note("ops_failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "frac", int(o.attempted))
	return rep, finish(o), nil
}

// sortedLabels returns the mix's query labels in order.
func sortedLabels(m map[string]latencies) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// batchCounters are the gpd.Detect work counters the traced run
// reports, per pass of the mix.
var batchCounters = []string{
	"maxflow.augmenting_paths",
	"maxflow.graph_arcs",
	"lattice.level_cuts_explored",
	"conjunctive.tokens_advanced",
	"singular.cpdhb_runs",
}

// traceBatch is the traced run of batch-detect: the mix with a span and
// a work-counter trace around every gpd.Detect call, split by query
// kind.
func traceBatch(in *batchInputs, d time.Duration) (*report, result, error) {
	comps, setup, err := measureBatchSetup(in)
	if err != nil {
		return nil, result{}, err
	}
	rep := newReport()
	o := &outcome{}
	// Untraced passes first, for the tracing overhead.
	var plain latencies
	t0 := time.Now()
	plainPasses := 0
	for plainPasses == 0 || time.Since(t0) < d/4 {
		batchPass(in, comps, o, &plain, nil, nil)
		plainPasses++
	}
	untraced := float64(len(plain)) / time.Since(t0).Seconds()
	plainEvents := o.events
	var lat latencies
	byLabel := make(map[string]latencies)
	counters := make(map[string]int64)
	tr := newTracer()
	cpu0, a0 := cpuNow(), startAllocs()
	gc0, tot0 := gcCPU()
	t0 = time.Now()
	passes := 0
	for passes == 0 || time.Since(t0) < d/2 {
		var last *gpd.Trace
		var lastSpan int
		flush := func() {
			if last == nil {
				return
			}
			tr.end(lastSpan)
			for _, name := range batchCounters {
				counters[name] += last.Counter(name)
			}
		}
		batchPass(in, comps, o, &lat, byLabel, func(q *batchQuery) *gpd.Trace {
			flush()
			lastSpan = tr.begin("batch."+q.label, q.trace)
			last = gpd.NewTrace()
			return last
		})
		flush()
		passes++
	}
	tracedRate := float64(len(lat)) / time.Since(t0).Seconds()
	cpu := cpuNow() - cpu0
	_, allocBytes := a0.since()
	gc1, tot1 := gcCPU()
	var busy time.Duration
	for _, l := range lat {
		busy += l
	}
	events := float64(max(o.events-plainEvents, 1))
	rep.text("# batch-detect traced: %d queries per pass, %d passes", len(in.queries), passes)
	rep.note("detections_per_s.untraced", untraced, "1/s", len(plain))
	rep.note("detections_per_s.traced", tracedRate, "1/s", len(lat))
	rep.note("tracing_overhead_frac", 1-tracedRate/untraced, "frac", 0)
	for _, label := range sortedLabels(byLabel) {
		rep.add("batch."+label+"_ms_p50", ms(byLabel[label].quantile(0.5)), "ms", len(byLabel[label]))
	}
	rep.add("batch.seal_ms", setup*1000, "ms", setupRounds)
	for _, name := range batchCounters {
		rep.add("batch."+name, float64(counters[name])/float64(passes), "count", passes)
	}
	rep.add("process.cpu_ns_per_event", float64(cpu)/events, "ns", int(o.events))
	rep.add("process.gc_cpu_frac", (gc1-gc0)/max(tot1-tot0, 1e-9), "frac", 0)
	rep.add("process.alloc_bytes_per_event", allocBytes/events, "B", 0)
	rep.add("other.ns_per_event", float64(cpu-busy)/events, "ns", 0)
	fillZeros(rep)
	self := make(map[string]float64)
	for name, d := range tr.selfTimes() {
		self[name] = float64(d) / events
	}
	self["process.cpu_total"] = float64(cpu) / events
	printSelfTimes(rep, self)
	spans := tr.names()
	rep.text("# checks")
	check(rep, "no stream.* or mux.* spans recorded", !hasPrefix(spans, "stream.") && !hasPrefix(spans, "mux."))
	if err := writeSpans(tr, "batch-detect"); err != nil {
		return nil, result{}, err
	}
	return rep, finish(o), nil
}
