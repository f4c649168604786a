// Command e2ebench is gpd's end-to-end benchmark. It starts an
// in-process stream engine and TCP server on loopback, drives them with
// pre-encoded wire frames, checks every verdict against the offline
// gpd.Detect oracle and prints each end-to-end metric by name; with
// -trace 1 it instead replays the same inputs through each layer's
// public functions and prints the per-layer breakdown.
//
//	go run . -workload sum-stream -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// The program exits 1 when any verdict disagrees with its oracle and 2
// on bad usage. NOTES.md lists every metric and workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one input set the benchmark runs; BENCHMARK.json and
// NOTES.md say why each exists.
type workload struct {
	name string
	run  func(seed int64, d time.Duration, traced bool) (*report, result, error)
}

var workloads = []workload{
	{"sum-stream", runSumStream},
	{"mux-reorder", runMuxReorder},
	{"batch-detect", runBatch},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: sum-stream, mux-reorder or batch-detect")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.StringVar(&spansPath, "spans", "", "file the traced run writes its spans to (JSON)")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (sum-stream|mux-reorder|batch-detect), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%g trace=%d sha=%s gomaxprocs=%d nproc=%d go=%s\n",
		w.name, *seed, *seconds, *trace, revision(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep, res, err := w.run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: verdicts disagree with the oracle\n", w.name)
		return 1
	}
	return 0
}

// revision is the VCS revision stamped into the binary, when it was
// built from a git checkout.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
