// Package relmon holds the acceptance suite for online relational-sum
// monitoring (Section 4 of the paper run incrementally): processes keep
// online vector clocks and stream each change of their variable x to
// stream sessions deciding sum(x) relop k, whose verdicts must agree
// with the offline extrema of x0 + ... + xn over the consistent cuts.
// The directory holds no library code: the detector under test is the
// sum detector every stream session resolves from the registry.
package relmon

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/stream"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// rangeOf is the exact range of an ideal-sum quantity over the
// consistent cuts.
func rangeOf(q relsum.Quantity) (min, max int64) {
	b := relsum.Range(q, 1, nil)
	return b.Min, b.Max
}

// monitor runs one stream session per predicate over the same event
// stream.
type monitor struct {
	preds    []string
	sessions []*stream.Session
}

func newMonitor(t *testing.T, procs int, init []int64, preds ...string) *monitor {
	t.Helper()
	m := &monitor{preds: preds}
	for _, p := range preds {
		s, err := stream.NewSession(stream.Spec{Pred: p, Procs: procs, Init: init})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		m.sessions = append(m.sessions, s)
	}
	return m
}

// Observe reports that process p's variable holds val after the event
// stamped stamp.
func (m *monitor) Observe(t *testing.T, p int, val int64, stamp vclock.VC) {
	t.Helper()
	for i, s := range m.sessions {
		if err := s.Step(stream.Event{Proc: p, VC: stamp, Val: val}); err != nil {
			t.Fatalf("%s: %v", m.preds[i], err)
		}
	}
}

// Flush brings every session's detector up to date.
func (m *monitor) Flush() {
	for _, s := range m.sessions {
		s.Flush()
	}
}

// Verdicts finalizes every session and returns its Possibly verdict by
// predicate.
func (m *monitor) Verdicts(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool, len(m.preds))
	for i, s := range m.sessions {
		v, err := s.Finalize()
		if err != nil {
			t.Fatalf("%s: %v", m.preds[i], err)
		}
		out[m.preds[i]] = v.Possibly
	}
	return out
}

// rangePreds are the predicates pinning [min, max] as the exact range of
// sum(x): every equality from min-1 to max+1 and the four strict and
// non-strict bounds, with the verdict each must reach.
func rangePreds(min, max int64) map[string]bool {
	want := map[string]bool{
		fmt.Sprintf("sum(x) < %d", min):  false,
		fmt.Sprintf("sum(x) <= %d", min): true,
		fmt.Sprintf("sum(x) > %d", max):  false,
		fmt.Sprintf("sum(x) >= %d", max): true,
	}
	for k := min - 1; k <= max+1; k++ {
		want[fmt.Sprintf("sum(x) == %d", k)] = k >= min && k <= max
	}
	return want
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// replay streams a random two-process computation through m in a random
// linearization, stamping events with online vector clocks.
func replay(t *testing.T, rng *rand.Rand, c *computation.Computation, m *monitor) {
	t.Helper()
	clocks := []*vclock.Clock{vclock.NewClock(0, 2), vclock.NewClock(1, 2)}
	stampOf := make(map[computation.EventID]vclock.VC)
	k := c.InitialCut()
	for !k.Equal(c.FinalCut()) {
		en := c.Enabled(k)
		id := en[rng.Intn(len(en))]
		e := c.Event(id)
		var incoming vclock.VC
		for _, pre := range c.DirectPreds(id) {
			if c.Event(pre).Proc != e.Proc {
				if incoming == nil {
					incoming = stampOf[pre].Clone()
				} else {
					incoming.Merge(stampOf[pre])
				}
			}
		}
		var stamp vclock.VC
		if incoming != nil {
			stamp = clocks[int(e.Proc)].Receive(incoming)
		} else {
			stamp = clocks[int(e.Proc)].Event()
		}
		stampOf[id] = stamp
		m.Observe(t, int(e.Proc), c.Var("x", id), stamp)
		if rng.Intn(3) == 0 {
			m.Flush()
		}
		k = c.Execute(k, e.Proc)
	}
}

func randomTwoProc(rng *rand.Rand) *computation.Computation {
	c := computation.New()
	for p := 0; p < 2; p++ {
		c.AddProcess()
		v := int64(rng.Intn(3) - 1)
		c.SetVar("x", c.Initial(computation.ProcID(p)).ID, v)
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			id := c.AddInternal(computation.ProcID(p))
			v += int64(rng.Intn(3) - 1)
			c.SetVar("x", id, v)
		}
	}
	for tries := 0; tries < 6; tries++ {
		p := computation.ProcID(rng.Intn(2))
		q := 1 - p
		i := 1 + rng.Intn(c.Len(p)-1)
		j := 1 + rng.Intn(c.Len(q)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(p, i).ID, c.EventAt(q, j).ID)
		}
	}
	return c.MustSeal()
}

func TestOnlineMatchesOfflineSumRange(t *testing.T) {
	rng := rand.New(rand.NewSource(457))
	for trial := 0; trial < 200; trial++ {
		c := randomTwoProc(rng)
		wantMin, wantMax := rangeOf(relsum.Var(c, "x"))
		want := rangePreds(wantMin, wantMax)
		init := []int64{c.Var("x", c.Initial(0).ID), c.Var("x", c.Initial(1).ID)}
		m := newMonitor(t, 2, init, keys(want)...)
		replay(t, rng, c, m)
		for p, got := range m.Verdicts(t) {
			if got != want[p] {
				t.Fatalf("trial %d: online %s = %v, offline range [%d,%d]", trial, p, got, wantMin, wantMax)
			}
		}
	}
}

func TestPruningBoundsMemory(t *testing.T) {
	// A tightly synchronized ping-pong: the detector window must stay
	// small even after many observations. The values jump by more than
	// one, so the predicate is a bound (equality needs unit steps).
	m := newMonitor(t, 2, []int64{0, 0}, "sum(x) > 100")
	s := m.sessions[0]
	c0 := vclock.NewClock(0, 2)
	c1 := vclock.NewClock(1, 2)
	maxWindow := 0
	for round := 0; round < 500; round++ {
		snd := c0.Send()
		m.Observe(t, 0, int64(round%2), snd)
		m.Observe(t, 1, int64(round%3), c1.Receive(snd))
		snd2 := c1.Send()
		m.Observe(t, 1, 0, snd2)
		m.Observe(t, 0, 0, c0.Receive(snd2))
		m.Flush()
		if w := s.Window(); w > maxWindow {
			maxWindow = w
		}
	}
	if maxWindow > 8 {
		t.Fatalf("window reached %d states; pruning broken", maxWindow)
	}
	if pruned := s.Delivered() - int64(s.Window()); pruned < 1000 {
		t.Fatalf("pruned only %d states over %d observations", pruned, s.Delivered())
	}
	if m.Verdicts(t)["sum(x) > 100"] {
		t.Fatal("sum never exceeds 3, yet sum(x) > 100 was detected")
	}
}

func TestUnsynchronizedKeepsAll(t *testing.T) {
	// With no messages everything is concurrent: every pair is
	// consistent and min/max must span all combinations.
	want := map[string]bool{
		"sum(x) <= -3": true, "sum(x) < -3": false, // -2 + -1
		"sum(x) >= 8": true, "sum(x) > 8": false, // 3 + 5
	}
	m := newMonitor(t, 2, []int64{0, 0}, keys(want)...)
	c0 := vclock.NewClock(0, 2)
	c1 := vclock.NewClock(1, 2)
	for _, v := range []int64{1, -2, 3} {
		m.Observe(t, 0, v, c0.Event())
	}
	for _, v := range []int64{5, -1} {
		m.Observe(t, 1, v, c1.Event())
	}
	for p, got := range m.Verdicts(t) {
		if got != want[p] {
			t.Errorf("%s = %v, want %v", p, got, want[p])
		}
	}
}
