package conjunctive

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/vclock"
)

// TestStepSweepMatchesObserve feeds the same random event streams through
// per-true-event Observe and through Step with a Sweep at random batch
// boundaries (false events included, as the stream detectors feed them)
// and checks that detection and witness agree.
func TestStepSweepMatchesObserve(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		// Independent processes with random interleaved ticks: generate
		// per-process sequences of timestamps (merging occasionally).
		clocks := make([]*vclock.Clock, n)
		for p := range clocks {
			clocks[p] = vclock.NewClock(p, n)
		}
		type obs struct {
			proc  int
			vc    vclock.VC
			truth bool
		}
		var trace []obs
		for i := 0; i < 30; i++ {
			p := rng.Intn(n)
			var vc vclock.VC
			if rng.Float64() < 0.3 {
				q := rng.Intn(n)
				vc = clocks[p].Receive(clocks[q].Now())
			} else {
				vc = clocks[p].Event()
			}
			trace = append(trace, obs{p, vc, rng.Float64() < 0.5})
		}
		one := NewChecker([]int{0, 1, 2})
		for _, o := range trace {
			if o.truth {
				one.Observe(o.proc, o.vc)
			}
		}
		batched := NewChecker([]int{0, 1, 2})
		for _, o := range trace {
			batched.Step(o.proc, o.vc, o.truth)
			if rng.Intn(4) == 0 {
				batched.Sweep()
			}
		}
		batched.Sweep()
		if one.Found() != batched.Found() {
			t.Fatalf("seed %d: Observe found=%v, Step+Sweep found=%v", seed, one.Found(), batched.Found())
		}
		if one.Found() {
			w1, w2 := one.Witness(), batched.Witness()
			for i := range w1 {
				if w1[i].Compare(w2[i]) != vclock.Equal {
					t.Fatalf("seed %d: witness mismatch at slot %d: %v vs %v", seed, i, w1[i], w2[i])
				}
			}
		}
		if !batched.Found() && batched.Pending() != one.Pending() {
			t.Fatalf("seed %d: pending mismatch: %d vs %d", seed, batched.Pending(), one.Pending())
		}
		if got := len(batched.Depths()); got != 3 {
			t.Fatalf("Depths length = %d, want 3", got)
		}
		if got := batched.Involved(); len(got) != 3 || got[0] != 0 {
			t.Fatalf("Involved = %v", got)
		}
	}
}

// TestSeedLatchesInitialCut: when every involved process is seeded, the
// initial cut satisfies the conjunction before any event arrives.
func TestSeedLatchesInitialCut(t *testing.T) {
	ch := NewChecker([]int{0, 2})
	ch.Seed(0, 3)
	if ch.Sweep() {
		t.Fatal("one seeded process of two cannot satisfy the conjunction")
	}
	ch.Seed(2, 3)
	if !ch.Sweep() {
		t.Fatal("every involved process seeded: the initial cut satisfies")
	}
}

// TestSeedEliminatedOnceSeen: a seeded initial state is consistent with
// any state that has not seen the process's first event, and is
// eliminated by one that has.
func TestSeedEliminatedOnceSeen(t *testing.T) {
	ch := NewChecker([]int{0, 1})
	ch.Seed(0, 2)
	ch.Step(0, vclock.VC{1, 0}, false) // p0 turns false
	ch.Step(1, vclock.VC{1, 1}, true)  // p1's true event has seen it
	if ch.Sweep() {
		t.Fatal("p1's true state follows p0's first event: the seed is stale")
	}
	ch = NewChecker([]int{0, 1})
	ch.Seed(0, 2)
	ch.Step(1, vclock.VC{0, 1}, true) // concurrent with p0's first event
	if !ch.Sweep() {
		t.Fatal("p1's true state precedes p0's first event: consistent with the seed")
	}
	ch.Step(0, vclock.VC{1, 0}, false)
	if !ch.Found() {
		t.Fatal("detection is latched")
	}
}
