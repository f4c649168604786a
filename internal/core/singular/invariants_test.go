package singular

// Invariant tests for the detection machinery beyond input/output
// agreement: strategy consistency, witness structure, work counters, and
// the correctness of the time-reversal used by the send-ordered detector.

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
)

// TestAllStrategiesAgree: wherever multiple strategies apply, they must
// give the same verdict.
func TestAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 150; trial++ {
		c := randomComputation(rng, 4, 5, 10)
		p := randomPredicate(rng, 2, 2)
		truth := randomTruth(rng, c, 0.35)
		var verdicts []bool
		for _, s := range []Strategy{ProcessSubsets, ChainCover, Auto} {
			res, err := Detect(c, p, truth, s, 1, nil)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, s, err)
			}
			verdicts = append(verdicts, res.Found)
		}
		for _, s := range []Strategy{ReceiveOrdered, SendOrdered} {
			res, err := Detect(c, p, truth, s, 1, nil)
			if err != nil {
				continue // not applicable to this computation
			}
			verdicts = append(verdicts, res.Found)
		}
		for i := 1; i < len(verdicts); i++ {
			if verdicts[i] != verdicts[0] {
				t.Fatalf("trial %d: strategies disagree: %v", trial, verdicts)
			}
		}
	}
}

// TestWitnessEventsBelongToTheirClauses: every witness event must lie on
// one of its clause's processes and make that literal true.
func TestWitnessEventsBelongToTheirClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 120; trial++ {
		c := randomComputation(rng, 4, 5, 10)
		p := randomPredicate(rng, 2, 2)
		truth := randomTruth(rng, c, 0.5)
		res, err := Detect(c, p, truth, ChainCover, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue
		}
		for i, id := range res.Witness {
			e := c.Event(id)
			matched := false
			for _, l := range p.Clauses[i] {
				if l.Proc == e.Proc {
					matched = true
					if truth(e) == l.Negated {
						t.Fatalf("trial %d: witness %v does not satisfy literal %v", trial, e, l)
					}
				}
			}
			if !matched {
				t.Fatalf("trial %d: witness %v not on clause %d's processes", trial, e, i)
			}
		}
	}
}

// TestCombinationsBounded: algorithm A tries at most prod(k_i)
// selections; algorithm B at most prod(c_i) with c_i the chain cover
// sizes.
func TestCombinationsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 60; trial++ {
		c := randomComputation(rng, 4, 5, 12)
		p := randomPredicate(rng, 2, 2)
		truth := randomTruth(rng, c, 0.4)
		ra, err := Detect(c, p, truth, ProcessSubsets, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		boundA := 1
		for _, cl := range p.Clauses {
			boundA *= len(cl)
		}
		if ra.Combinations > boundA {
			t.Fatalf("trial %d: A tried %d > k^g bound %d", trial, ra.Combinations, boundA)
		}
		rb, err := Detect(c, p, truth, ChainCover, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := ChainCoverSizes(c, p, truth)
		if err != nil {
			t.Fatal(err)
		}
		boundB := 1
		empty := false
		for _, s := range sizes {
			if s == 0 {
				empty = true
			}
			boundB *= s
		}
		if !empty && rb.Combinations > boundB {
			t.Fatalf("trial %d: B tried %d > c^g bound %d (covers %v)", trial, rb.Combinations, boundB, sizes)
		}
	}
}

// TestReversalPreservesConsistency: the consistency of original events
// equals the consistency of their images in the time-reversed padded
// computation — the identity the send-ordered detector relies on.
func TestReversalPreservesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 60; trial++ {
		c := randomComputation(rng, 3, 4, 8)
		rev := reversePadded(c)
		var ids []computation.EventID
		c.Events(func(e computation.Event) bool {
			ids = append(ids, e.ID)
			return true
		})
		for _, a := range ids {
			for _, b := range ids {
				want := c.ConsistentEvents(a, b)
				ra := rev.image(c, a)
				rb := rev.image(c, b)
				got := rev.c.ConsistentEvents(ra, rb)
				if got != want {
					t.Fatalf("trial %d: consistency(%v,%v)=%v but reversed images give %v",
						trial, c.Event(a), c.Event(b), want, got)
				}
			}
		}
	}
}

// TestReversalRoundTrip: preimage inverts image.
func TestReversalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	c := randomComputation(rng, 3, 5, 8)
	rev := reversePadded(c)
	c.Events(func(e computation.Event) bool {
		if got := rev.preimage(c, rev.image(c, e.ID)); got != e.ID {
			t.Fatalf("round trip %v -> %v", e.ID, got)
		}
		return true
	})
}

// TestOrderedDetectorsAreDeterministic: repeated runs on the same input
// give identical witnesses (no map-iteration nondeterminism).
func TestOrderedDetectorsAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	for trial := 0; trial < 20; trial++ {
		c, p := receiveOrderedComputation(rng, 2, 2, 4)
		truth := randomTruth(rng, c, 0.4)
		first, err := Detect(c, p, truth, ReceiveOrdered, 1, nil)
		if err != nil {
			continue
		}
		for rep := 0; rep < 5; rep++ {
			again, err := Detect(c, p, truth, ReceiveOrdered, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again.Found != first.Found {
				t.Fatalf("trial %d: verdict changed across reruns", trial)
			}
			if first.Found {
				for i := range first.Witness {
					if first.Witness[i] != again.Witness[i] {
						t.Fatalf("trial %d: witness changed across reruns", trial)
					}
				}
			}
		}
	}
}

// TestEliminationsNeverExceedCandidates: each elimination permanently
// discards one candidate of one queue, so within one combination the count
// is bounded by the total number of candidates.
func TestEliminationsNeverExceedCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(347))
	for trial := 0; trial < 60; trial++ {
		c, p := receiveOrderedComputation(rng, 2, 2, 5)
		truth := randomTruth(rng, c, 0.5)
		res, err := Detect(c, p, truth, ReceiveOrdered, 1, nil)
		if err != nil {
			continue
		}
		total := 0
		for _, q := range p.trueEvents(c, truth) {
			total += len(q)
		}
		if res.Eliminations > total {
			t.Fatalf("trial %d: %d eliminations > %d candidates", trial, res.Eliminations, total)
		}
	}
}
