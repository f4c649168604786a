package mux

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// --- Delivery ---

func ev(proc int, vc ...int64) detect.Event {
	return detect.Event{Proc: proc, VC: vc}
}

func TestDeliveryReordersAndDedupes(t *testing.T) {
	var got []detect.Event
	d := NewDelivery(2, func(e detect.Event) { got = append(got, e) })

	// Process 1's second event depends on process 0's first; deliver the
	// dependent event first and let the holdback absorb it.
	must := func(e detect.Event) {
		t.Helper()
		if err := d.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	must(ev(1, 1, 2)) // needs (1,1) and (0,1)
	if len(got) != 0 || d.Holdback() != 1 {
		t.Fatalf("premature delivery: %d delivered, %d held", len(got), d.Holdback())
	}
	must(ev(1, 0, 1))
	must(ev(1, 0, 1)) // duplicate: idempotent
	if len(got) != 1 {
		t.Fatalf("after (1,[0 1]): %d delivered, want 1", len(got))
	}
	must(ev(0, 1, 0)) // unblocks (1,[1 2])
	if len(got) != 3 || d.Holdback() != 0 {
		t.Fatalf("after drain: %d delivered (want 3), %d held (want 0)", len(got), d.Holdback())
	}
	wantOrder := [][2]int64{{1, 1}, {0, 1}, {1, 2}}
	for i, w := range wantOrder {
		if int64(got[i].Proc) != w[0] || got[i].VC[got[i].Proc] != w[1] {
			t.Fatalf("delivery %d = proc %d own %d, want proc %d own %d",
				i, got[i].Proc, got[i].VC[got[i].Proc], w[0], w[1])
		}
	}
	if d.Delivered() != 3 || d.DeliveredOn(1) != 2 {
		t.Fatalf("Delivered=%d DeliveredOn(1)=%d", d.Delivered(), d.DeliveredOn(1))
	}
}

func TestDeliveryRejectsMalformed(t *testing.T) {
	d := NewDelivery(2, func(detect.Event) {})
	if err := d.Step(ev(5, 1, 0)); err == nil {
		t.Fatal("out-of-range process accepted")
	}
	d = NewDelivery(2, func(detect.Event) {})
	if err := d.Step(ev(0, 1)); err == nil {
		t.Fatal("short timestamp accepted")
	}
	if err := d.Step(ev(0, 1, 0)); err == nil {
		t.Fatal("sticky error not returned")
	}
}

// --- Projector ---

func TestProjectorClocks(t *testing.T) {
	// Two processes; variable v has events at local indices 1,3 of p0 and
	// 2 of p1 (other indices belong to other variables).
	pj := newProjector(2)
	if got := pj.project(0, []int64{1, 0}); got[0] != 1 || got[1] != 0 {
		t.Fatalf("first v-event of p0: %v", got)
	}
	// p1's v-event at local index 2 has seen p0's index 2 (so both
	// v-events ≤ 2 of p0... only index 1 qualifies).
	if got := pj.project(1, []int64{2, 2}); got[0] != 1 || got[1] != 1 {
		t.Fatalf("v-event of p1: %v", got)
	}
	if got := pj.project(0, []int64{3, 0}); got[0] != 2 || got[1] != 0 {
		t.Fatalf("second v-event of p0: %v", got)
	}
	// Prune below the floor [1,0]: p0's index-1 entry folds into base.
	pj.prune([]int64{1, 0})
	if pj.retained() != 2 {
		t.Fatalf("retained = %d after prune, want 2", pj.retained())
	}
	// Later event still projects correctly via the base offset.
	if got := pj.project(1, []int64{3, 3}); got[0] != 2 || got[1] != 2 {
		t.Fatalf("post-prune projection: %v", got)
	}
}

// --- Randomized agreement with the offline oracle ---

// tag records what one event of the generated computation carries on the
// multiplexed stream.
type tag struct {
	varName string
	val     int64 // variable value (bool vars) or occupancy delta
}

// randomComputation builds a multi-variable computation with messages:
// internal events flip random 0/1 variables, message pairs move channel
// occupancy. It returns the sealed computation (with carried-forward
// variable tables, so offline oracles see every variable at every event)
// and the multiplexed event stream in causal order.
func randomComputation(rng *rand.Rand, procs, rounds int, vars []string) (*computation.Computation, []detect.Event) {
	c := computation.New()
	for p := 0; p < procs; p++ {
		c.AddProcess()
	}
	tags := make(map[computation.EventID]tag)
	for i := 0; i < rounds; i++ {
		p := computation.ProcID(rng.Intn(procs))
		if rng.Float64() < 0.2 {
			q := computation.ProcID(rng.Intn(procs))
			for q == p {
				q = computation.ProcID(rng.Intn(procs))
			}
			send := c.AddInternal(p)
			recv := c.AddInternal(q)
			if err := c.AddMessage(send, recv); err != nil {
				panic(err)
			}
			tags[send] = tag{varName: detect.InFlightVar, val: 1}
			tags[recv] = tag{varName: detect.InFlightVar, val: -1}
			continue
		}
		id := c.AddInternal(p)
		tags[id] = tag{varName: vars[rng.Intn(len(vars))], val: int64(rng.Intn(2))}
	}
	// Carried-forward variable tables: every event carries every
	// variable's current value on its process (initials are zero).
	for p := 0; p < procs; p++ {
		cur := make(map[string]int64, len(vars))
		for _, id := range c.ProcEvents(computation.ProcID(p)) {
			if tg, ok := tags[id]; ok && tg.varName != detect.InFlightVar {
				cur[tg.varName] = tg.val
			}
			for _, v := range vars {
				c.SetVar(v, id, cur[v])
			}
		}
	}
	if err := c.Seal(); err != nil {
		panic(err)
	}
	var stream []detect.Event
	for _, id := range c.Topo() {
		e := c.Event(id)
		if e.IsInitial() {
			continue
		}
		clk := c.Clock(id)
		vc := make([]int64, len(clk))
		for q, v := range clk {
			if v >= 1 {
				vc[q] = int64(v) - 1
			}
		}
		out := detect.Event{Proc: int(e.Proc), VC: vc}
		if tg, ok := tags[id]; ok {
			out.Var = tg.varName
			out.Val = tg.val
			out.Truth = tg.varName != detect.InFlightVar && tg.val != 0
		}
		stream = append(stream, out)
	}
	return c, stream
}

// TestMuxAgreesWithOracle is the soundness test of the relevance index:
// for every incremental family, a var-routed predicate — stepped only on
// its variable's events, under projected timestamps — must latch exactly
// the verdict the offline batch algorithm computes on the full
// computation (which is also what stepping the detector on every event
// yields). Failures here mean the projection leaks or drops causal
// constraints.
func TestMuxAgreesWithOracle(t *testing.T) {
	specs := []pred.Spec{
		{Family: pred.Conjunctive, Var: "v0"},
		{Family: pred.Sum, Var: "v0", Rel: relsum.Ge, K: 3},
		{Family: pred.Sum, Var: "v1", Rel: relsum.Eq, K: 2},
		{Family: pred.Count, Var: "v1", Rel: relsum.Ge, K: 2},
		{Family: pred.Xor, Var: "v2"},
		{Family: pred.Levels, Var: "v2", Levels: []int{3}},
		{Family: pred.InFlight, Rel: relsum.Ge, K: 2},
		{Family: pred.InFlight, Rel: relsum.Eq, K: 0},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, stream := randomComputation(rng, 4, 120, []string{"v0", "v1", "v2"})
		g := NewGroup(4)
		for i, s := range specs {
			id := fmt.Sprintf("p%d", i)
			if err := g.Register(Registration{ID: id, Spec: s}); err != nil {
				t.Fatalf("seed %d: register %v: %v", seed, s, err)
			}
		}
		for i, e := range stream {
			if err := g.Step(e); err != nil {
				t.Fatalf("seed %d: step %d: %v", seed, i, err)
			}
			if i%16 == 15 {
				g.Flush()
			}
		}
		g.Flush()
		if g.Err() != nil {
			t.Fatalf("seed %d: group error: %v", seed, g.Err())
		}
		if g.Holdback() != 0 {
			t.Fatalf("seed %d: %d events stuck in holdback", seed, g.Holdback())
		}
		st := g.Stats()
		if st.Skipped == 0 {
			t.Errorf("seed %d: relevance index skipped nothing over %d deliveries", seed, st.Delivered)
		}
		for i, s := range specs {
			id := fmt.Sprintf("p%d", i)
			res, err := detect.Batch(c, s, detect.ModalityPossibly, detect.Options{}, nil)
			if err != nil {
				t.Fatalf("seed %d: oracle %v: %v", seed, s, err)
			}
			if got := g.Possibly(id); got != res.Holds {
				t.Errorf("seed %d: %v: mux possibly=%v, oracle=%v (steps=%d skipped=%d)",
					seed, s, got, res.Holds, st.Steps, st.Skipped)
			}
		}
	}
}

// TestConjunctiveInvolvedRouting checks the process filter taken from
// Registration.Involved: events of non-involved processes are skipped, and the
// verdict matches the conjunction over the involved processes alone.
func TestConjunctiveInvolvedRouting(t *testing.T) {
	g := NewGroup(3)
	err := g.Register(Registration{
		ID:       "conj",
		Spec:     pred.Spec{Family: pred.Conjunctive, Var: "x"},
		Involved: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(e detect.Event) {
		t.Helper()
		if err := g.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	// Process 2 is never true but also not involved.
	step(detect.Event{Proc: 2, VC: []int64{0, 0, 1}, Var: "x", Truth: false})
	// Concurrent true events on the involved processes.
	step(detect.Event{Proc: 0, VC: []int64{1, 0, 0}, Var: "x", Truth: true})
	step(detect.Event{Proc: 1, VC: []int64{0, 1, 0}, Var: "x", Truth: true})
	if !g.Flush() {
		t.Fatal("conjunction over involved processes should latch")
	}
	st := g.Stats()
	if st.Steps != 2 {
		t.Fatalf("steps = %d, want 2 (process 2's event filtered)", st.Steps)
	}
}

// TestMidStreamRegistration checks registration-cut semantics: a
// predicate registered mid-stream is seeded with the variable's last
// delivered values and observes only the suffix.
func TestMidStreamRegistration(t *testing.T) {
	g := NewGroup(2)
	step := func(e detect.Event) {
		t.Helper()
		if err := g.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	step(detect.Event{Proc: 0, VC: []int64{1, 0}, Var: "y", Val: 5})
	step(detect.Event{Proc: 1, VC: []int64{0, 1}, Var: "y", Val: 5})
	g.Flush()

	// Seeded baseline 5+5=10 satisfies ≥10 at the registration cut.
	if err := g.Register(Registration{ID: "ge10", Tenant: "a",
		Spec: pred.Spec{Family: pred.Sum, Var: "y", Rel: relsum.Ge, K: 10}}); err != nil {
		t.Fatal(err)
	}
	if !g.Possibly("ge10") {
		t.Fatal("ge10 should latch from the seeded registration cut")
	}
	// ≥12 needs the suffix.
	if err := g.Register(Registration{ID: "ge12", Tenant: "a",
		Spec: pred.Spec{Family: pred.Sum, Var: "y", Rel: relsum.Ge, K: 12}}); err != nil {
		t.Fatal(err)
	}
	if g.Possibly("ge12") {
		t.Fatal("ge12 latched prematurely")
	}
	step(detect.Event{Proc: 0, VC: []int64{2, 0}, Var: "y", Val: 7})
	g.Flush()
	if !g.Possibly("ge12") {
		t.Fatal("ge12 should latch after y rises to 7+5")
	}
	ups := g.Drain()
	if len(ups) != 2 {
		t.Fatalf("drained %d updates, want 2 (ge10 at registration, ge12 after flush)", len(ups))
	}
	for _, u := range ups {
		if u.Seq != 1 || !u.Possibly || u.Tenant != "a" {
			t.Fatalf("unexpected update %+v", u)
		}
	}
	if g.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
}

// TestLatchStopsStepping checks the latch-stop optimization: a latched
// var-routed predicate is deactivated, its detector freed, and further
// events of its variable cost nothing.
func TestLatchStopsStepping(t *testing.T) {
	g := NewGroup(1)
	if err := g.Register(Registration{ID: "s",
		Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{1}, Var: "x", Val: 1}); err != nil {
		t.Fatal(err)
	}
	if !g.Flush() {
		t.Fatal("should latch")
	}
	if g.Active() != 0 || g.Registered() != 1 {
		t.Fatalf("active=%d registered=%d, want 0/1", g.Active(), g.Registered())
	}
	if g.preds["s"].det != nil {
		t.Fatal("latched routed detector should be freed")
	}
	before := g.Stats().Steps
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{2}, Var: "x", Val: 2}); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	if got := g.Stats().Steps; got != before {
		t.Fatalf("latched predicate was stepped: steps %d -> %d", before, got)
	}
	states := g.States()
	if len(states) != 1 || !states[0].Possibly {
		t.Fatalf("States() = %+v", states)
	}
}

// TestUnregisterAndTenants checks registration bookkeeping.
func TestUnregisterAndTenants(t *testing.T) {
	g := NewGroup(1)
	reg := func(id, tenant string) {
		t.Helper()
		if err := g.Register(Registration{ID: id, Tenant: tenant,
			Spec: pred.Spec{Family: pred.Xor, Var: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	reg("a1", "a")
	reg("a2", "a")
	reg("b1", "b")
	reg("d1", "")
	if err := g.Register(Registration{ID: "a1", Spec: pred.Spec{Family: pred.Xor, Var: "x"}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if g.TenantCount("a") != 2 || g.TenantCount("b") != 1 || g.TenantCount("default") != 1 {
		t.Fatalf("tenant counts: %v", g.Tenants())
	}
	if err := g.Unregister("a2"); err != nil {
		t.Fatal(err)
	}
	if err := g.Unregister("a2"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if g.TenantCount("a") != 1 || g.Registered() != 3 || g.Active() != 3 {
		t.Fatalf("after unregister: tenants=%v registered=%d active=%d", g.Tenants(), g.Registered(), g.Active())
	}
	if err := g.Unregister("b1"); err != nil {
		t.Fatal(err)
	}
	if g.TenantCount("b") != 0 {
		t.Fatalf("tenant b should be gone: %v", g.Tenants())
	}
	// The id is free again.
	reg("a2", "a")
	if g.TenantCount("a") != 2 {
		t.Fatalf("re-register: %v", g.Tenants())
	}
}

// TestPerPredicateFailureIsolated checks that one predicate's step
// failure (a unit-step violation) surfaces in its update stream without
// killing the group or its other predicates.
func TestPerPredicateFailureIsolated(t *testing.T) {
	g := NewGroup(1)
	if err := g.Register(Registration{ID: "eq",
		Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Registration{ID: "ge",
		Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 5}}); err != nil {
		t.Fatal(err)
	}
	// A jump of 5 violates the Eq detector's unit-step requirement but is
	// fine for Ge.
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{1}, Var: "x", Val: 5}); err != nil {
		t.Fatalf("group should survive a per-predicate failure: %v", err)
	}
	g.Flush()
	if err := g.preds["eq"].err; err == nil {
		t.Fatal("eq should carry the unit-step error")
	}
	if !g.Possibly("ge") {
		t.Fatal("ge should have latched despite eq's failure")
	}
	var failed, latched bool
	for _, u := range g.Drain() {
		switch u.ID {
		case "eq":
			failed = u.Err != ""
		case "ge":
			latched = u.Possibly && u.Err == ""
		}
	}
	if !failed || !latched {
		t.Fatalf("updates missing: failed=%v latched=%v", failed, latched)
	}
	if g.Active() != 0 {
		t.Fatalf("active = %d, want 0 (eq failed, ge latched)", g.Active())
	}
}

// TestRejectsNonIncremental checks registration validation.
func TestRejectsNonIncremental(t *testing.T) {
	g := NewGroup(2)
	err := g.Register(Registration{ID: "cnf", Spec: pred.Spec{
		Family:  pred.CNF,
		Var:     "x",
		Clauses: []pred.Clause{{{Proc: 0}}},
	}})
	if err == nil {
		t.Fatal("cnf (no incremental detector) accepted")
	}
	if err := g.Register(Registration{ID: ""}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := g.Register(Registration{ID: "bad", Spec: pred.Spec{Family: pred.Sum}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestRegisterChecksInvolved: an involved-process list is checked where
// it is used. A non-conjunctive family naming processes, an id out of
// range and a repeated id are each rejected with an error naming the
// field, instead of being ignored or silently dropped.
func TestRegisterChecksInvolved(t *testing.T) {
	cases := []struct {
		name     string
		spec     pred.Spec
		involved []int
		want     string
	}{
		{"non-conjunctive", pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 1}, []int{0}, "involved processes apply only to conjunctive"},
		{"out of range", pred.Spec{Family: pred.Conjunctive, Var: "x"}, []int{7}, "involved process 7 out of range [0,4)"},
		{"negative", pred.Spec{Family: pred.Conjunctive, Var: "x"}, []int{0, -1}, "involved process -1 out of range"},
		{"repeated", pred.Spec{Family: pred.Conjunctive, Var: "x"}, []int{1, 1}, "involved process 1 listed twice"},
	}
	for _, tc := range cases {
		for _, all := range []bool{false, true} {
			g := NewGroup(4)
			err := g.Register(Registration{ID: "p", Spec: tc.spec, Involved: tc.involved, AllEvents: all})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (all events %v): error %v, want one containing %q", tc.name, all, err, tc.want)
			}
			if g.Registered() != 0 {
				t.Errorf("%s (all events %v): rejected registration was kept", tc.name, all)
			}
		}
	}
	g := NewGroup(4)
	if err := g.Register(Registration{ID: "p", Spec: pred.Spec{Family: pred.Conjunctive, Var: "x"}, Involved: []int{3, 0}}); err != nil {
		t.Fatalf("valid involved set rejected: %v", err)
	}
}
