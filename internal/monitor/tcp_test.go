package monitor

import (
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/stream"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// newServer starts an engine configured by cfg behind a TCP server on a
// loopback port, with one conjunctive session over n processes open. The
// server and engine are torn down when the test ends.
func newServer(t *testing.T, cfg stream.Config, n int, involved []int, opts ...stream.ServerOption) *stream.Server {
	t.Helper()
	e := stream.NewEngine(cfg)
	t.Cleanup(e.Shutdown)
	if err := e.Open(session, stream.Spec{Pred: "all(x)", Procs: n, Involved: involved, Retain: true}); err != nil {
		t.Fatal(err)
	}
	s, err := stream.ListenAndServe("127.0.0.1:0", e, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// tcpProbe is a probe reporting over its own wire-protocol connection.
type tcpProbe struct {
	*probe
	cl *stream.Client
	// latched is the session verdict piggybacked on the last reply.
	latched bool
}

// dialProbe connects process proc of n to the server at addr.
func dialProbe(addr string, proc, n int) (*tcpProbe, error) {
	cl, err := stream.Dial(addr)
	if err != nil {
		return nil, err
	}
	tp := &tcpProbe{cl: cl}
	tp.probe = &probe{proc: proc, clock: vclock.NewClock(proc, n), emit: func(ev stream.Event) error {
		latched, err := cl.Append(session, []stream.Event{ev})
		tp.latched = latched
		return err
	}}
	return tp, nil
}

// dialProbes connects one probe per process, closed when the test ends.
func dialProbes(t *testing.T, s *stream.Server, n int) []*tcpProbe {
	t.Helper()
	probes := make([]*tcpProbe, n)
	for p := range probes {
		pr, err := dialProbe(s.Addr(), p, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pr.cl.Close() })
		probes[p] = pr
	}
	return probes
}

func TestTCPDetectsConcurrentTrueEvents(t *testing.T) {
	s := newServer(t, stream.Config{Shards: 1}, 2, []int{0, 1})
	p := dialProbes(t, s, 2)
	must(t, p[0].Internal(true))
	must(t, p[1].Internal(true))
	if !detected(t, s.Engine()) {
		t.Fatal("detection did not fire over TCP")
	}
	if v := closeVerdict(t, s.Engine()); !v.Possibly || !v.Definitely {
		t.Fatalf("close verdict %+v, want possibly and definitely", v)
	}
}

func TestTCPOrderedNotDetected(t *testing.T) {
	s := newServer(t, stream.Config{Shards: 1}, 2, []int{0, 1})
	p := dialProbes(t, s, 2)
	// p0 true, then sends (false state); p1 receives then its only true
	// event — inconsistent with p0's.
	must(t, p[0].Internal(true))
	stamp, err := p[0].Send(false)
	must(t, err)
	must(t, p[1].Receive(stamp, false))
	must(t, p[1].Internal(true))
	if detected(t, s.Engine()) {
		t.Fatal("ordered true events must not be detected")
	}
	if p[0].latched || p[1].latched {
		t.Fatal("a reply piggybacked a detection that did not happen")
	}
}

func TestTCPStatusPiggyback(t *testing.T) {
	s := newServer(t, stream.Config{Shards: 1}, 2, []int{0, 1})
	p := dialProbes(t, s, 2)
	must(t, p[0].Internal(true))
	must(t, p[1].Internal(true))
	if !detected(t, s.Engine()) {
		t.Fatal("detection did not fire over TCP")
	}
	// The next report must carry the latched verdict back to the probe.
	must(t, p[0].Internal(true))
	if !p[0].latched {
		t.Fatal("probe did not learn about the detection")
	}
}

func TestTCPManyProcessesConcurrently(t *testing.T) {
	const n = 5
	s := newServer(t, stream.Config{Shards: 2}, n, []int{0, 1, 2, 3, 4})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			pr, err := dialProbe(s.Addr(), me, n)
			if err != nil {
				t.Error(err)
				return
			}
			defer pr.cl.Close()
			// A few false internal steps, then the true event; no
			// messages so all true events are concurrent.
			for _, truth := range []bool{false, false, true} {
				if err := pr.Internal(truth); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if !detected(t, s.Engine()) {
		t.Fatal("five concurrent true events not detected")
	}
	st, _, err := s.Engine().QueryUpdates(session)
	must(t, err)
	if st.Delivered != 3*n {
		t.Fatalf("delivered %d events, want %d", st.Delivered, 3*n)
	}
}

func TestServerCloseUnblocks(t *testing.T) {
	s := newServer(t, stream.Config{Shards: 1}, 1, []int{0})
	p := dialProbes(t, s, 1)
	if err := s.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	// Reporting after close fails but must not hang.
	done := make(chan error, 1)
	go func() { done <- p[0].Internal(true) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("report after server close must fail")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("probe hung after server close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := dialProbe("127.0.0.1:1", 0, 1); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

// TestTCPFlightAndLogs runs a detection with the flight recorder and a
// structured logger attached to engine and server: appends leave recv
// records, the latch a verdict record, closed probes transport-level
// disconnect records, and the connections' lifecycle lands in the log.
func TestTCPFlightAndLogs(t *testing.T) {
	fl := obs.NewFlight(64)
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := newServer(t, stream.Config{Shards: 1, Flight: fl}, 2, []int{0, 1},
		stream.WithServerFlight(fl), stream.WithServerLogger(logger))
	p0, err := dialProbe(s.Addr(), 0, 2)
	must(t, err)
	p1, err := dialProbe(s.Addr(), 1, 2)
	must(t, err)
	must(t, p0.Internal(true))
	must(t, p1.Internal(true))
	if !detected(t, s.Engine()) {
		t.Fatal("detection did not fire over TCP")
	}
	p0.cl.Close()
	p1.cl.Close()
	deadline := time.Now().Add(3 * time.Second)
	for countDisconnects(fl) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no disconnect records for both probes; ring: %+v", fl.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	for _, stage := range []obs.FlightStage{obs.StageRecv, obs.StageVerdict} {
		if !hasStage(fl, stage) {
			t.Errorf("no %v records; ring: %+v", stage, fl.Snapshot())
		}
	}
	logged := logBuf.String()
	for _, want := range []string{"connection accepted", "connection closed"} {
		if !strings.Contains(logged, want) {
			t.Errorf("log missing %q:\n%s", want, logged)
		}
	}
}

// countDisconnects counts the ring's transport-level disconnect records
// (shard -1: the server's, not a session close on a shard worker).
func countDisconnects(fl *obs.Flight) int {
	n := 0
	for _, r := range fl.Snapshot() {
		if r.Stage == obs.StageDisconnect && r.Shard == -1 {
			n++
		}
	}
	return n
}

// hasStage reports whether the ring holds a record at the given stage.
func hasStage(fl *obs.Flight, stage obs.FlightStage) bool {
	for _, r := range fl.Snapshot() {
		if r.Stage == stage {
			return true
		}
	}
	return false
}

// syncBuffer is a mutex-guarded strings.Builder: the slog handler
// writes from serve goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}
