// Package monitor holds the acceptance suite for online conjunctive
// monitoring in the style of Garg–Waldecker: instrumented processes keep
// online vector clocks and stream every event, stamped, to one
// all(x) session of the stream engine, which must latch the verdict the
// moment a consistent cut of the observed prefix makes every local
// predicate true. The in-process tests drive stream.Engine directly; the
// TCP tests drive it through stream.ListenAndServe and stream.Dial. The
// directory holds no library code: the detector under test is the one
// behind gpdserver.
package monitor

import (
	"sync"
	"testing"

	"github.com/distributed-predicates/gpd/internal/stream"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// session is the id of the one monitored application in every test.
const session = "app"

// probe instruments one monitored process: it ticks the process's online
// vector clock on every event and hands the stamped event, carrying the
// local predicate's truth after it, to emit.
type probe struct {
	proc  int
	clock *vclock.Clock
	emit  func(stream.Event) error
}

func (p *probe) report(stamp vclock.VC, truth bool) error {
	return p.emit(stream.Event{Proc: p.proc, VC: stamp, Truth: truth})
}

// Internal reports a local event.
func (p *probe) Internal(truth bool) error { return p.report(p.clock.Event(), truth) }

// Send reports a send event and returns the timestamp the message carries.
func (p *probe) Send(truth bool) (vclock.VC, error) {
	stamp := p.clock.Send()
	return stamp.Clone(), p.report(stamp, truth)
}

// Receive reports the delivery of a message stamped stamp.
func (p *probe) Receive(stamp vclock.VC, truth bool) error {
	return p.report(p.clock.Receive(stamp), truth)
}

// newMonitor starts an engine with one conjunctive session over n
// processes (the involved ones carry a local predicate) and returns it
// with one in-process probe per process.
func newMonitor(t *testing.T, n int, involved []int) (*stream.Engine, []*probe) {
	t.Helper()
	e := stream.NewEngine(stream.Config{Shards: 1})
	if err := e.Open(session, stream.Spec{Pred: "all(x)", Procs: n, Involved: involved, Retain: true}); err != nil {
		e.Shutdown()
		t.Fatal(err)
	}
	probes := make([]*probe, n)
	for p := range probes {
		probes[p] = &probe{proc: p, clock: vclock.NewClock(p, n), emit: func(ev stream.Event) error {
			return e.Append(session, []stream.Event{ev})
		}}
	}
	return e, probes
}

// detected flushes the session (every append made so far is delivered
// before the query runs) and returns its latched verdict.
func detected(t *testing.T, e *stream.Engine) bool {
	t.Helper()
	st, _, err := e.QueryUpdates(session)
	if err != nil {
		t.Fatal(err)
	}
	if st.Error != "" {
		t.Fatalf("session failed: %s", st.Error)
	}
	return st.Possibly
}

// closeVerdict finalizes the session and returns its verdict.
func closeVerdict(t *testing.T, e *stream.Engine) stream.Verdict {
	t.Helper()
	v, _, err := e.ClosePredicates(session)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetectsConcurrentTrueEvents(t *testing.T) {
	e, p := newMonitor(t, 2, []int{0, 1})
	defer e.Shutdown()
	must(t, p[0].Internal(true))
	must(t, p[1].Internal(true))
	if !detected(t, e) {
		t.Fatal("concurrent true events not detected")
	}
	// Both processes end true: every run passes through the final cut.
	if v := closeVerdict(t, e); !v.Possibly || !v.DefinitelyKnown || !v.Definitely {
		t.Fatalf("close verdict %+v, want possibly and definitely", v)
	}
}

func TestDoesNotDetectOrderedTrueEvents(t *testing.T) {
	e, p := newMonitor(t, 2, []int{0, 1})
	defer e.Shutdown()
	// p0 true event, then p0 sends; p1 receives, then p1 true event.
	// The receive knows of 2 events on p0 > the true event's 1: the
	// pair is inconsistent and nothing else is true.
	must(t, p[0].Internal(true))
	stamp, err := p[0].Send(false)
	must(t, err)
	must(t, p[1].Receive(stamp, false))
	must(t, p[1].Internal(true))
	if detected(t, e) {
		t.Fatal("ordered true events must not be detected")
	}
	if v := closeVerdict(t, e); v.Possibly {
		t.Fatalf("close verdict %+v, want not possibly", v)
	}
}

func TestDetectsAfterElimination(t *testing.T) {
	e, p := newMonitor(t, 2, []int{0, 1})
	defer e.Shutdown()
	// First p0 true event is superseded (p1 has seen past it), but a
	// second, concurrent one completes the conjunction.
	must(t, p[0].Internal(true))
	stamp, err := p[0].Send(false)
	must(t, err)
	must(t, p[1].Receive(stamp, false))
	must(t, p[1].Internal(true))
	if detected(t, e) {
		t.Fatal("detected before the fresh true event")
	}
	must(t, p[0].Internal(true))
	if !detected(t, e) {
		t.Fatal("fresh concurrent true event not detected")
	}
}

func TestConcurrentProcessesGoroutines(t *testing.T) {
	// Three goroutine processes exchanging stamped messages over Go
	// channels; each becomes true once. All true events are concurrent
	// (no messages between the flips), so detection must fire.
	const n = 3
	e, probes := newMonitor(t, n, []int{0, 1, 2})
	defer e.Shutdown()
	chans := make([]chan vclock.VC, n)
	for i := range chans {
		chans[i] = make(chan vclock.VC, n)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(pr *probe) {
			defer wg.Done()
			if err := pr.Internal(false); err != nil {
				t.Error(err)
			}
			if err := pr.Internal(true); err != nil { // the conjunct flips true
				t.Error(err)
			}
			// Then gossip to everyone (after the true events, so the
			// true states remain pairwise consistent).
			stamp, err := pr.Send(true)
			if err != nil {
				t.Error(err)
			}
			for j := 0; j < n; j++ {
				if j != pr.proc {
					chans[j] <- stamp
				}
			}
			for j := 0; j < n-1; j++ {
				if err := pr.Receive(<-chans[pr.proc], true); err != nil {
					t.Error(err)
				}
			}
		}(probes[i])
	}
	wg.Wait()
	if !detected(t, e) {
		t.Fatal("conjunction not detected in goroutine run")
	}
	st, _, err := e.QueryUpdates(session)
	must(t, err)
	if st.Delivered != 5*n || st.Holdback != 0 {
		t.Fatalf("delivered %d events with %d held back, want %d and 0", st.Delivered, st.Holdback, 5*n)
	}
}

func TestProbeSendCarriesTruth(t *testing.T) {
	e, p := newMonitor(t, 2, []int{0, 1})
	defer e.Shutdown()
	// A true SEND event must be reported like any other true event. The
	// sender's state remains true while the message is in flight, so it
	// is consistent with the receiver's post-delivery true state: the
	// conjunction must be detected.
	stamp, err := p[0].Send(true)
	must(t, err)
	must(t, p[1].Receive(stamp, true))
	if !detected(t, e) {
		t.Fatal("send-reported truth did not participate in detection")
	}
}
