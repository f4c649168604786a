package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/stream"
)

// allWire concatenates every pre-encoded frame of a stream workload.
func allWire(in *streamInputs) []byte {
	var b bytes.Buffer
	for _, s := range in.scripts {
		for _, f := range s.frames {
			b.Write(f.wire)
		}
		b.Write(s.query.wire)
	}
	return b.Bytes()
}

func TestInputsDeterministicInSeed(t *testing.T) {
	gens := map[string]func(int64) (*streamInputs, error){"sum-stream": genSumStream}
	if !testing.Short() {
		gens["mux-reorder"] = genMuxReorder
	}
	for name, gen := range gens {
		a, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(allWire(a), allWire(b)) {
			t.Errorf("%s: seed 1 gave different frames on two runs", name)
		}
		if bytes.Equal(allWire(a), allWire(c)) {
			t.Errorf("%s: seeds 1 and 2 gave the same frames", name)
		}
	}
	traces := func(seed int64) []byte {
		in, err := genBatch(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, tr := range in.traces {
			b.Write(tr.json)
		}
		for _, q := range in.queries {
			b.WriteString(q.text)
		}
		return b.Bytes()
	}
	if !bytes.Equal(traces(1), traces(1)) {
		t.Error("batch-detect: seed 1 gave different inputs on two runs")
	}
	if bytes.Equal(traces(1), traces(2)) {
		t.Error("batch-detect: seeds 1 and 2 gave the same inputs")
	}
}

func TestFlippedVerdictFailsTheRun(t *testing.T) {
	in, err := genSumStream(1)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := runStream(in, 400*time.Millisecond, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d, want a correct run", res.Correct, res.Failed)
	}
	for _, s := range in.scripts {
		s.wantPossibly = !s.wantPossibly
	}
	_, res, err = runStream(in, 400*time.Millisecond, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a flipped expected verdict still reported a correct run")
	}
}

func TestFlippedBatchVerdictFailsTheRun(t *testing.T) {
	in, err := genBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	in.queries[0].want = !in.queries[0].want
	comps, _, err := readTraces(in)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	var lat latencies
	batchPass(in, comps, o, &lat, nil, nil)
	if len(o.mismatches) != 1 {
		t.Fatalf("%d mismatches, want exactly the flipped one", len(o.mismatches))
	}
}

func TestShedFramesCountAsFailures(t *testing.T) {
	in, err := genSumStream(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchConfig()
	cfg.Policy = stream.DropOldest
	cfg.QueueLen = 1
	rep, res, err := runStream(in, 400*time.Millisecond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0.0
	for _, e := range rep.entries {
		if e.name == "shed_frames" {
			shed = e.value
		}
	}
	if shed == 0 {
		t.Skip("the engine shed no frame on this machine; nothing to count")
	}
	if float64(res.Failed) < shed {
		t.Fatalf("%d failures counted for %v shed frames", res.Failed, shed)
	}
}

func TestTracedBatchRecordsNoStreamSpans(t *testing.T) {
	in, err := genBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, res, err := traceBatch(in, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("traced batch run reported wrong verdicts")
	}
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", m.name)
		}
	}
	for _, e := range rep.entries {
		if e.text != "" && bytes.Contains([]byte(e.text), []byte("NOT MET")) {
			t.Errorf("shape check failed: %s", e.text)
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks that the metric lists of the
// repository's BENCHMARK.json are the ones this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
