package stream

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
)

// rangeOf is the exact range of an ideal-sum quantity over the
// consistent cuts.
func rangeOf(q relsum.Quantity) (min, max int64) {
	b := relsum.Range(q, 1, nil)
	return b.Min, b.Max
}

// e2eJob is one monitored application: a random computation, its session
// spec, and the offline-oracle answers for both modalities.
type e2eJob struct {
	id       string
	spec     Spec
	events   []Event
	wantPos  bool
	wantDef  bool
	checkDef bool
}

// makeJobs builds n jobs cycling through the four streaming predicate
// families, computing oracle verdicts with the offline detectors.
func makeJobs(t *testing.T, n int) []e2eJob {
	t.Helper()
	jobs := make([]e2eJob, 0, n)
	for i := 0; i < n; i++ {
		seed := int64(i)
		c := randomComputation(seed)
		np := c.NumProcs()
		j := e2eJob{id: fmt.Sprintf("app-%03d", i), checkDef: true}
		switch i % 4 {
		case 0: // conjunctive
			truth := gen.BoolTables(seed, c, 0.4)
			locals := make(map[computation.ProcID]conjunctive.LocalPredicate)
			for p := range truth {
				row := truth[p]
				locals[computation.ProcID(p)] = func(e computation.Event) bool {
					return e.Index < len(row) && row[e.Index]
				}
			}
			events, init := TableTrace(c, truth)
			j.spec = Spec{Pred: "all(x)", Procs: np, Init: init, Retain: true}
			j.events = events
			j.wantPos = conjunctive.DetectTables(c, truth).Found
			j.wantDef = conjunctive.DetectDefinitely(c, locals, nil)
		case 1: // sum equality
			gen.UnitStepVar(seed, c, varName)
			events, init := SumTrace(c, varName)
			lo, hi := rangeOf(relsum.Var(c, varName))
			k := lo + seed%(hi-lo+2)
			j.spec = Spec{Pred: sumEqPred(k), Procs: np, Init: init, Retain: true}
			j.events = events
			var err error
			if j.wantPos, _, _, err = relsum.Possibly(relsum.Var(c, varName), relsum.Eq, k, 1, nil); err != nil {
				t.Fatal(err)
			}
			if j.wantDef, err = relsum.Definitely(relsum.Var(c, varName), relsum.Eq, k, 1, nil); err != nil {
				t.Fatal(err)
			}
		case 2: // symmetric
			gen.BoolVar(seed, c, varName, 0.4)
			events, init := BoolTrace(c, varName)
			sp := symmetric.NotAllEqual(np)
			truth := func(e computation.Event) bool { return c.Var(varName, e.ID) != 0 }
			j.spec = Spec{Pred: levelsPred(sp.Levels), Procs: np, Init: init, Retain: true}
			j.events = events
			var err error
			if j.wantPos, _, _, err = symmetric.Possibly(c, sp, truth, 1, nil); err != nil {
				t.Fatal(err)
			}
			if j.wantDef, err = symmetric.Definitely(c, sp, truth, 1, nil); err != nil {
				t.Fatal(err)
			}
		case 3: // channel occupancy, via the canonical grammar
			k := 1 + seed%2
			j.spec = Spec{Pred: fmt.Sprintf("inflight >= %d", k), Procs: np, Retain: true}
			j.events = InFlightTrace(c)
			min, max := rangeOf(relsum.InFlight(c))
			j.wantPos = min >= k || max >= k
			var err error
			if j.wantDef, err = relsum.Definitely(relsum.InFlight(c), relsum.Ge, k, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// TestServe64ConcurrentSessions is the acceptance e2e: 64 sessions
// streamed concurrently over real TCP connections, each verdict checked
// against the offline oracles for its predicate family.
func TestServe64ConcurrentSessions(t *testing.T) {
	eng := NewEngine(Config{Shards: 4, QueueLen: 64, BatchSize: 16})
	defer eng.Shutdown()
	srv, err := ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	jobs := makeJobs(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(j e2eJob, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Open(j.id, j.spec); err != nil {
				errs <- fmt.Errorf("%s: open: %w", j.id, err)
				return
			}
			evs := append([]Event(nil), j.events...)
			rng.Shuffle(len(evs), func(a, b int) { evs[a], evs[b] = evs[b], evs[a] })
			for len(evs) > 0 {
				n := 1 + rng.Intn(4)
				if n > len(evs) {
					n = len(evs)
				}
				if _, err := cl.Append(j.id, evs[:n]); err != nil {
					errs <- fmt.Errorf("%s: append: %w", j.id, err)
					return
				}
				evs = evs[n:]
			}
			verdict, _, err := cl.ClosePredicates(j.id)
			if err != nil {
				errs <- fmt.Errorf("%s: close: %w", j.id, err)
				return
			}
			if verdict.Possibly != j.wantPos {
				errs <- fmt.Errorf("%s (%s): Possibly=%v, oracle=%v",
					j.id, j.spec.Pred, verdict.Possibly, j.wantPos)
			}
			if j.checkDef && (!verdict.DefinitelyKnown || verdict.Definitely != j.wantDef) {
				errs <- fmt.Errorf("%s (%s): Definitely=%v (known=%v), oracle=%v",
					j.id, j.spec.Pred, verdict.Definitely, verdict.DefinitelyKnown, j.wantDef)
			}
		}(jobs[i], int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := eng.Snapshot()
	if snap.Detections == 0 {
		t.Error("no detections recorded across 64 sessions")
	}
	if len(snap.Sessions) != 0 {
		t.Errorf("%d sessions still registered after close", len(snap.Sessions))
	}
}

// TestServerRejectsGarbage sends hostile bytes and wrong-version frames;
// the server must answer with an error frame (when it can) and drop the
// connection without disturbing other clients.
func TestServerRejectsGarbage(t *testing.T) {
	eng := NewEngine(Config{Shards: 1})
	defer eng.Shutdown()
	srv, err := ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("bad version", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := EncodeRequest(conn, Request{V: 42, Type: "query", Session: "x"}); err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Error == "" {
			t.Fatalf("want error reply, got %+v", resp)
		}
	})
	t.Run("hostile length", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The server replies with an error frame or just closes; it must
		// not hang and the listener must survive.
		DecodeResponse(conn)
	})
	// A healthy client still works afterwards.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Open("ok", Spec{Pred: "all(x)", Procs: 1}); err != nil {
		t.Fatalf("healthy client after garbage: %v", err)
	}
}

// TestServerIdleTimeout checks that a silent connection is disconnected
// while an active one keeps its session.
func TestServerIdleTimeout(t *testing.T) {
	eng := NewEngine(Config{Shards: 1})
	defer eng.Shutdown()
	srv, err := ListenAndServe("127.0.0.1:0", eng, WithServerIdleTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// Sessions outlive connections: open, let the connection idle out,
	// reconnect, and continue the same session.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Open("s", Spec{Pred: "all(x)", Procs: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)

	// The stalled raw connection should be closed by now: a read returns.
	stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := stalled.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection still open after idle timeout")
	}

	cl.Close()
	cl2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Append("s", []Event{{Proc: 0, VC: []int64{1}, Truth: true}}); err != nil {
		t.Fatalf("resume session on a new connection: %v", err)
	}
	if verdict, _, err := cl2.ClosePredicates("s"); err != nil || !verdict.Possibly {
		t.Fatalf("verdict %+v, err %v", verdict, err)
	}
}

// BenchmarkStreamIngest measures end-to-end engine throughput in
// events/sec: one session per shard, in-order unit-step streams, batched
// appends, Backpressure policy.
func BenchmarkStreamIngest(b *testing.B) {
	const (
		procs    = 8
		batch    = 64
		sessions = 4
	)
	eng := NewEngine(Config{Shards: 4, QueueLen: 256, BatchSize: 64})
	defer eng.Shutdown()

	// Per-session synthetic workloads, generated on the fly: round-robin
	// local events, each process periodically observing a peer so the
	// vector-clock frontier advances and pruning keeps the window bounded.
	type source struct {
		vcs  [][]int64
		step int
	}
	srcs := make([]*source, sessions)
	ids := make([]string, sessions)
	for s := range srcs {
		src := &source{vcs: make([][]int64, procs)}
		for p := range src.vcs {
			src.vcs[p] = make([]int64, procs)
		}
		srcs[s] = src
		ids[s] = fmt.Sprintf("bench-%d", s)
		if err := eng.Open(ids[s], Spec{Pred: sumEqPred(-1), Procs: procs}); err != nil {
			b.Fatal(err)
		}
	}
	next := func(src *source, out []Event) []Event {
		for i := 0; i < batch; i++ {
			p := src.step % procs
			src.vcs[p][p]++
			if src.step%7 == 0 {
				q := (p + 1) % procs
				for r := 0; r < procs; r++ {
					if src.vcs[q][r] > src.vcs[p][r] {
						src.vcs[p][r] = src.vcs[q][r]
					}
				}
			}
			out = append(out, Event{
				Proc: p,
				VC:   append([]int64(nil), src.vcs[p]...),
				Val:  int64(src.step % 2),
			})
			src.step++
		}
		return out
	}

	b.ResetTimer()
	sent := 0
	for i := 0; sent < b.N; i++ {
		s := i % sessions
		evs := next(srcs[s], make([]Event, 0, batch))
		if err := eng.Append(ids[s], evs); err != nil {
			b.Fatal(err)
		}
		sent += len(evs)
	}
	for _, id := range ids { // drain the mailboxes before stopping the clock
		if _, _, err := eng.QueryUpdates(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "events/sec")
}
