package mux

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// suffixOf builds the suffix of a mux test computation above the
// delivered cut k: each process keeps its events after k, its initial
// state takes the values the process holds at k, and messages with both
// ends above k carry over (a causal path between two suffix events never
// dips below the cut, since the cut is downward closed). Besides the
// variables it stores "occ", each process's running occupancy change
// since k — what an inflight registration that counts from zero at its
// cut reads — and "v1_02", v1 on processes 0 and 2 and true on process
// 1, the conjunction a registration involving only processes 0 and 2
// decides.
func suffixOf(t *testing.T, c *computation.Computation, stream []detect.Event, vars []string, k []int) *computation.Computation {
	t.Helper()
	delta := make(map[[2]int64]int64)
	for _, ev := range stream {
		if ev.Var == detect.InFlightVar {
			delta[[2]int64{int64(ev.Proc), ev.VC[ev.Proc]}] = ev.Val
		}
	}
	s := computation.New()
	ids := make(map[computation.EventID]computation.EventID)
	for p := 0; p < c.NumProcs(); p++ {
		sp := s.AddProcess()
		evs := c.ProcEvents(sp)
		var occ int64
		for idx := k[p]; idx < len(evs); idx++ {
			id := s.Initial(sp).ID
			if idx > k[p] {
				id = s.AddInternal(sp)
				ids[evs[idx]] = id
				occ += delta[[2]int64{int64(p), int64(idx)}]
			}
			for _, v := range vars {
				s.SetVar(v, id, c.Var(v, evs[idx]))
			}
			s.SetVar("occ", id, occ)
			inv := c.Var("v1", evs[idx])
			if p == 1 {
				inv = 1
			}
			s.SetVar("v1_02", id, inv)
		}
	}
	for _, m := range c.Messages() {
		send, sok := ids[m.Send]
		recv, rok := ids[m.Receive]
		if sok && rok {
			if err := s.AddMessage(send, recv); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMidStreamRegistrationAgreesWithSuffix registers every incremental
// family mid-stream at random delivered cuts, with Init seeded by the
// group from the last delivered values, and checks each verdict against
// gpd.Detect on the suffix computation whose initial states are the
// cut's values. A conjunction the cut already satisfies must latch at
// registration, like every other truth family.
func TestMidStreamRegistrationAgreesWithSuffix(t *testing.T) {
	const procs = 3
	vars := []string{"v0", "v1"}
	type probe struct {
		reg    Registration
		oracle pred.Spec // the spec decided on the suffix
	}
	probes := []probe{
		{reg: Registration{Spec: pred.Spec{Family: pred.Conjunctive, Var: "v0"}}},
		{reg: Registration{Spec: pred.Spec{Family: pred.Conjunctive, Var: "v1"}, Involved: []int{0, 2}},
			oracle: pred.Spec{Family: pred.Conjunctive, Var: "v1_02"}},
		{reg: Registration{Spec: pred.Spec{Family: pred.Sum, Var: "v0", Rel: relsum.Ge, K: 2}}},
		{reg: Registration{Spec: pred.Spec{Family: pred.Sum, Var: "v1", Rel: relsum.Eq, K: 3}}},
		{reg: Registration{Spec: pred.Spec{Family: pred.Count, Var: "v1", Rel: relsum.Le, K: 0}}},
		{reg: Registration{Spec: pred.Spec{Family: pred.Xor, Var: "v0"}}},
		{reg: Registration{Spec: pred.Spec{Family: pred.Levels, Var: "v1", Levels: []int{3}}}},
		{reg: Registration{Spec: pred.Spec{Family: pred.InFlight, Rel: relsum.Ge, K: 1}},
			oracle: pred.Spec{Family: pred.Sum, Var: "occ", Rel: relsum.Ge, K: 1}},
		{reg: Registration{Spec: pred.Spec{Family: pred.InFlight, Rel: relsum.Le, K: -1}},
			oracle: pred.Spec{Family: pred.Sum, Var: "occ", Rel: relsum.Le, K: -1}},
	}
	covered := make(map[pred.Family]bool)
	for _, pr := range probes {
		covered[pr.reg.Spec.Family] = true
	}
	for _, f := range detect.Families() {
		if e, ok := detect.Lookup(f, detect.ModalityPossibly); ok && e.Caps.Incremental && !covered[f] {
			t.Errorf("incremental family %v has no probe", f)
		}
	}

	latchedAtCut := 0 // conjunctions their registration cut satisfies
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, stream := randomComputation(rng, procs, 30, vars)
		at := make([]int, 3)
		for i := range at {
			at[i] = rng.Intn(len(stream) + 1)
		}
		sort.Ints(at)

		g := NewGroup(procs)
		type registered struct {
			cut   []int
			probe int
		}
		regs := make(map[string]registered)
		k := make([]int, procs) // the delivered cut
		next := 0
		for i := 0; i <= len(stream); i++ {
			for ; next < len(at) && at[next] == i; next++ {
				for j, pr := range probes {
					r := pr.reg
					r.ID = fmt.Sprintf("cut%d/%d", next, j)
					if err := g.Register(r); err != nil {
						t.Fatalf("seed %d: register %v: %v", seed, r.Spec, err)
					}
					regs[r.ID] = registered{cut: append([]int(nil), k...), probe: j}
					if r.Spec.Family == pred.Conjunctive && g.Possibly(r.ID) {
						latchedAtCut++
					}
				}
			}
			if i == len(stream) {
				break
			}
			if err := g.Step(stream[i]); err != nil {
				t.Fatalf("seed %d: step %d: %v", seed, i, err)
			}
			k[stream[i].Proc]++
			if rng.Intn(4) == 0 {
				g.Flush()
			}
		}
		g.Flush()

		suffixes := make(map[string]*computation.Computation)
		for id, r := range regs {
			cut, j := r.cut, r.probe
			key := fmt.Sprint(cut)
			if suffixes[key] == nil {
				suffixes[key] = suffixOf(t, c, stream, vars, cut)
			}
			spec := probes[j].reg.Spec
			if probes[j].oracle.Family != 0 {
				spec = probes[j].oracle
			}
			rep, err := gpd.Detect(suffixes[key], spec)
			if err != nil {
				t.Fatalf("seed %d: oracle %v: %v", seed, spec, err)
			}
			if err := g.preds[id].err; err != nil {
				t.Fatalf("seed %d: %s (%v at cut %v): %v", seed, id, probes[j].reg.Spec, cut, err)
			}
			if got := g.Possibly(id); got != rep.Holds {
				t.Errorf("seed %d: %v registered at cut %v: mux possibly=%v, gpd.Detect on the suffix=%v",
					seed, probes[j].reg.Spec, cut, got, rep.Holds)
			}
		}
	}
	if latchedAtCut == 0 {
		t.Error("no registration cut satisfied a conjunction; the seeded initial state goes unchecked")
	}
}
