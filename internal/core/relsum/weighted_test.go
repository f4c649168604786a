package relsum

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/simulator"
)

// bruteInFlight counts messages sent-but-not-received at a cut.
func bruteInFlight(c *computation.Computation, k computation.Cut) int64 {
	var n int64
	for _, m := range c.Messages() {
		if k.Contains(c.Event(m.Send)) && !k.Contains(c.Event(m.Receive)) {
			n++
		}
	}
	return n
}

func TestInFlightWeightMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 5, MsgFrac: 0.8})
		q := InFlight(c)
		lattice.Explore(c, func(k computation.Cut) bool {
			want := bruteInFlight(c, k)
			got := q.At(k)
			if got != want {
				t.Fatalf("trial %d cut %v: weighted %d, brute %d", trial, k, got, want)
			}
			return true
		})
	}
}

func TestInFlightRangeMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 80; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 5, MsgFrac: 1.0})
		b := Range(InFlight(c), 1, nil)
		gotMin, gotMax := b.Min, b.Max
		wantMin, wantMax := int64(1<<62), int64(-1<<62)
		lattice.Explore(c, func(k computation.Cut) bool {
			n := bruteInFlight(c, k)
			if n < wantMin {
				wantMin = n
			}
			if n > wantMax {
				wantMax = n
			}
			return true
		})
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("trial %d: Range(InFlight) = [%d,%d], lattice = [%d,%d]",
				trial, gotMin, gotMax, wantMin, wantMax)
		}
	}
}

func TestInFlightMinIsZero(t *testing.T) {
	// The initial cut has nothing in flight, so min is always 0.
	c := gen.Random(gen.Params{Seed: 5, Procs: 4, Events: 8, MsgFrac: 0.8})
	if min := Range(InFlight(c), 1, nil).Min; min != 0 {
		t.Fatalf("min in-flight = %d, want 0", min)
	}
}

func TestPossiblyWeightedAllRelops(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.8})
		// Occupancy rebuilt from its event weights.
		q := Weighted(c, 0, InFlight(c).Weight)
		for _, r := range []Relop{Lt, Le, Eq, Ge, Gt, Ne} {
			for k := int64(0); k <= 3; k++ {
				got, _, _, err := Possibly(q, r, k, 1, nil)
				if errors.Is(err, ErrNotUnitStep) {
					continue // an event carries several messages
				}
				if err != nil {
					t.Fatal(err)
				}
				want, _ := lattice.Possibly(c, func(cc *computation.Computation, cut computation.Cut) bool {
					return r.Eval(bruteInFlight(cc, cut), k)
				})
				if got != want {
					t.Fatalf("trial %d: Possibly(weighted inflight %v %d) = %v, oracle = %v",
						trial, r, k, got, want)
				}
			}
		}
	}
}

func TestPossiblyQuiescentWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 5, MsgFrac: 0.6})
		q := InFlight(c)
		if q.ValidateUnitStep() != nil {
			continue // multi-message events: out of scope for equality
		}
		checked++
		max := Range(q, 1, nil).Max
		// The same occupancy shifted by a nonzero base: the witness
		// scan must start from the base, not from zero.
		const base = 7
		shifted := Weighted(c, base, q.Weight)
		for k := int64(0); k <= max; k++ {
			for _, tc := range []struct {
				q   Quantity
				off int64
			}{{q, 0}, {shifted, base}} {
				ok, cut, _, err := Possibly(tc.q, Eq, k+tc.off, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("trial %d base %d: occupancy %d within [0,%d] must be witnessed", trial, tc.off, k, max)
				}
				if got := bruteInFlight(c, cut); got != k {
					t.Fatalf("trial %d base %d: witness has %d in flight, want %d", trial, tc.off, got, k)
				}
				if !c.CutConsistent(cut) {
					t.Fatalf("trial %d: witness cut inconsistent", trial)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d/80 computations were unit-weight; generator too message-dense", checked)
	}
}

func TestWeightedSumEquivalentToVarSum(t *testing.T) {
	// The variable quantity must equal the weighted formulation with
	// hand-built delta weights, cut by cut and in range.
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 50; trial++ {
		c := unitStepComputation(rng, 3, 4, 6)
		var base int64
		for p := 0; p < c.NumProcs(); p++ {
			base += c.Var(varName, c.Initial(computation.ProcID(p)).ID)
		}
		delta := func(e computation.Event) int64 {
			return c.Var(varName, e.ID) - c.Var(varName, c.Prev(e.ID))
		}
		v, w := Var(c, varName), Weighted(c, base, delta)
		lattice.Explore(c, func(k computation.Cut) bool {
			if v.At(k) != w.At(k) || v.At(k) != c.SumVar(varName, k) {
				t.Fatalf("trial %d cut %v: var %d, weighted %d, sum %d", trial, k, v.At(k), w.At(k), c.SumVar(varName, k))
			}
			return true
		})
		wb, vb := Range(w, 1, nil), Range(v, 1, nil)
		if wb.Min != vb.Min || wb.Max != vb.Max {
			t.Fatalf("trial %d: weighted [%d,%d] != var-sum [%d,%d]", trial, wb.Min, wb.Max, vb.Min, vb.Max)
		}
	}
}

func TestTokenRingChannelBound(t *testing.T) {
	// In a token ring with T tokens, at most T messages are ever in
	// flight simultaneously.
	for seed := int64(0); seed < 8; seed++ {
		sim := simulator.New(seed, simulator.NewTokenRingProcs(5, 2, 1, 3))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		b := Range(InFlight(c), 1, nil)
		min, max := b.Min, b.Max
		if min != 0 {
			t.Fatalf("seed %d: min in-flight = %d", seed, min)
		}
		if max > 2 {
			t.Fatalf("seed %d: %d tokens in flight simultaneously, ring has 2", seed, max)
		}
	}
}

func TestDefinitelyWeightedMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(479))
	relops := []Relop{Lt, Le, Eq, Ge, Gt, Ne}
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.6})
		q := InFlight(c)
		unit := q.ValidateUnitStep() == nil
		for _, r := range relops {
			for k := int64(0); k <= 2; k++ {
				got, err := Definitely(q, r, k, 1, nil)
				if err != nil {
					if r == Eq && !unit {
						continue
					}
					t.Fatal(err)
				}
				want := lattice.Definitely(c, func(cc *computation.Computation, cut computation.Cut) bool {
					return r.Eval(bruteInFlight(cc, cut), k)
				})
				if got != want {
					t.Fatalf("trial %d: Definitely(inflight %v %d) = %v, oracle = %v",
						trial, r, k, got, want)
				}
			}
		}
	}
}

func TestDefinitelyWeightedUnknownRelop(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 1, Procs: 2, Events: 2, MsgFrac: 0})
	if _, err := Definitely(InFlight(c), Relop(42), 0, 1, nil); err == nil {
		t.Fatal("unknown relop must error")
	}
	if _, _, _, err := Possibly(InFlight(c), Relop(42), 0, 1, nil); err == nil {
		t.Fatal("unknown relop must error")
	}
}
