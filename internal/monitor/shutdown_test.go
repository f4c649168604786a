package monitor

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/stream"
)

// TestShutdownUnblocksProbes: once the engine is down, reporting fails
// with ErrEngineClosed instead of blocking on a dead mailbox.
func TestShutdownUnblocksProbes(t *testing.T) {
	e, p := newMonitor(t, 1, []int{0})
	e.Shutdown()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := p[0].Internal(true); !errors.Is(err, stream.ErrEngineClosed) {
				t.Errorf("report %d after shutdown: got %v, want ErrEngineClosed", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("probe blocked after shutdown")
	}
}

// TestShutdownIdempotent verifies that Shutdown can be called repeatedly
// and from multiple goroutines without panicking.
func TestShutdownIdempotent(t *testing.T) {
	e, _ := newMonitor(t, 2, []int{0, 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Shutdown()
		}()
	}
	wg.Wait()
	e.Shutdown() // and once more after everything is down
}

// TestShutdownDuringReports races Shutdown against probes that are still
// reporting; run under -race this pins the safety of the stop path.
func TestShutdownDuringReports(t *testing.T) {
	e, probes := newMonitor(t, 3, []int{0, 1, 2})
	var wg sync.WaitGroup
	for _, pr := range probes {
		wg.Add(1)
		go func(pr *probe) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := pr.Internal(i%2 == 0); err != nil {
					if !errors.Is(err, stream.ErrEngineClosed) {
						t.Errorf("proc %d: %v", pr.proc, err)
					}
					return
				}
			}
		}(pr)
	}
	done := make(chan struct{})
	go func() {
		e.Shutdown()
		e.Shutdown()
		close(done)
	}()
	reported := make(chan struct{})
	go func() { wg.Wait(); close(reported) }()
	for _, ch := range []chan struct{}{done, reported} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Shutdown and reporting probes did not both finish")
		}
	}
}

// TestServerCloseIdempotent: a double Close must not panic and must
// return the same (nil) error.
func TestServerCloseIdempotent(t *testing.T) {
	s := newServer(t, stream.Config{Shards: 1}, 2, []int{0, 1})
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStalledPeerDisconnected verifies the idle timeout: a peer that
// connects and then goes silent is disconnected instead of pinning a
// serve goroutine forever, and the server still serves working probes.
func TestStalledPeerDisconnected(t *testing.T) {
	s := newServer(t, stream.Config{Shards: 1}, 2, []int{0, 1},
		stream.WithServerIdleTimeout(50*time.Millisecond), stream.WithServerWriteTimeout(time.Second))

	// The stalled peer: dials and never writes.
	stalled, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// The server must hang up on it: a read on our side sees EOF/reset.
	if err := stalled.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := stalled.Read(buf); err == nil {
		t.Fatal("expected the server to disconnect the stalled peer")
	}

	// Meanwhile live probes still work end to end.
	p := dialProbes(t, s, 2)
	must(t, p[0].Internal(true))
	must(t, p[1].Internal(true))
	if !detected(t, s.Engine()) {
		t.Fatal("no detection after both probes reported true")
	}
}
