package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// TestOpenPredicateIsARegistration: a session opened with a predicate
// accepts register frames like any other, and the open predicate fans
// out as registration "_session" next to them. Both verdicts, in the
// query fan-out and in the close fan-out, equal gpd.Detect on the
// streamed computation, and so does the open predicate's close-time
// Definitely (over seeds that reach both outcomes, when the session
// decides it). The registered predicate reads the open one's variable x
// or another variable y; with y, events of either variable interleave
// and half the x events are untagged, so the open predicate must move
// only on x (or untagged) events, in its detector, its retained trace
// and its slice alike.
func TestOpenPredicateIsARegistration(t *testing.T) {
	for _, tc := range []struct {
		name string
		open Spec // Procs and Init are filled in per seed
		reg  string
		vars []string // vars[0] is the open predicate's variable
	}{
		{"same variable", Spec{Pred: "all(x)", Retain: true}, "count(x) >= 2", []string{"x"}},
		{"two variables, retained", Spec{Pred: "count(x) >= 2", Retain: true}, "count(y) >= 2", []string{"x", "y"}},
		{"two variables, sliced", Spec{Pred: "all(x)", Slice: true}, "count(y) >= 2", []string{"x", "y"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(Config{Shards: 2})
			defer eng.Shutdown()
			seen := map[string]map[bool]bool{sessionPred: {}, "c": {}, "definitely": {}}
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := gen.Random(gen.Params{Seed: seed, Procs: 2 + rng.Intn(3), Events: 3 + rng.Intn(3), MsgFrac: 0.7})
				events, init := taggedBoolTrace(c, rng, tc.vars)
				want := map[string]bool{}
				for id, text := range map[string]string{sessionPred: tc.open.Pred, "c": tc.reg} {
					rep, err := gpd.Detect(c, mustParse(t, text))
					if err != nil {
						t.Fatal(err)
					}
					want[id] = rep.Holds
					seen[id][rep.Holds] = true
				}
				def, err := gpd.Detect(c, mustParse(t, tc.open.Pred), gpd.WithModality(gpd.ModalityDefinitely))
				if err != nil {
					t.Fatal(err)
				}

				id := fmt.Sprintf("s%d", seed)
				open := tc.open
				open.Procs, open.Init = c.NumProcs(), init[tc.vars[0]]
				if err := eng.Open(id, open); err != nil {
					t.Fatal(err)
				}
				latched := map[string]bool{}
				regVar := mustParse(t, tc.reg).Var
				ups, err := eng.Register(id, RegisterSpec{ID: "c", Pred: tc.reg, Init: init[regVar]})
				if err != nil {
					t.Fatalf("seed %d: register on a session opened with pred: %v", seed, err)
				}
				rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
				for len(events) > 0 {
					k := 1 + rng.Intn(len(events))
					if err := eng.Append(id, events[:k]); err != nil {
						t.Fatal(err)
					}
					events = events[k:]
				}
				_, more, err := eng.QueryUpdates(id)
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range append(ups, more...) {
					if u.Err != "" {
						t.Fatalf("seed %d: %s failed: %s", seed, u.ID, u.Err)
					}
					latched[u.ID] = latched[u.ID] || u.Possibly
				}
				v, states, err := eng.ClosePredicates(id)
				if err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
				if len(states) != 2 {
					t.Fatalf("seed %d: close fan-out %+v, want _session and c", seed, states)
				}
				for _, u := range states {
					if u.Possibly != want[u.ID] || latched[u.ID] != want[u.ID] {
						t.Errorf("seed %d: %s: close possibly=%v, query latched=%v, gpd.Detect says %v",
							seed, u.ID, u.Possibly, latched[u.ID], want[u.ID])
					}
				}
				if any := want[sessionPred] || want["c"]; v.Possibly != any {
					t.Errorf("seed %d: session possibly=%v, want %v (some registration latched)", seed, v.Possibly, any)
				}
				if open.Retain && !v.DefinitelyKnown {
					t.Errorf("seed %d: a retaining session left Definitely unknown", seed)
				}
				if v.DefinitelyKnown {
					seen["definitely"][def.Holds] = true
					if v.Definitely != def.Holds {
						t.Errorf("seed %d: Definitely(%s)=%v, gpd.Detect says %v", seed, tc.open.Pred, v.Definitely, def.Holds)
					}
				}
			}
			for id, outcomes := range seen {
				if !outcomes[true] || !outcomes[false] {
					t.Errorf("%s: the seeds only reach verdicts %v; widen them", id, outcomes)
				}
			}
			if snap := eng.Snapshot(); snap.Predicates != 0 {
				t.Errorf("%d tenant slots still held after every session closed", snap.Predicates)
			}
		})
	}
}

// taggedBoolTrace gives each event of c one of vars, picked at random,
// and a random 0/1 value for it (1 one time in three); every other variable keeps its value
// across the event. The events are tagged with their variable; with
// more than one variable, half the events of vars[0] go untagged (an
// untagged event updates the variable of the predicate the session was
// opened with, and no registered predicate reads it). init
// holds each variable's random 0/1 initial values.
func taggedBoolTrace(c *computation.Computation, rng *rand.Rand, vars []string) ([]Event, map[string][]int64) {
	init := map[string][]int64{}
	tags := map[computation.EventID]string{}
	for _, v := range vars {
		init[v] = make([]int64, c.NumProcs())
	}
	for p := 0; p < c.NumProcs(); p++ {
		cur := map[string]int64{}
		for _, v := range vars {
			cur[v] = int64(rng.Intn(2))
			init[v][p] = cur[v]
		}
		for _, id := range c.ProcEvents(computation.ProcID(p)) {
			if !c.Event(id).IsInitial() {
				v := vars[rng.Intn(len(vars))]
				cur[v] = int64(rng.Intn(3) / 2) // true one time in three
				tags[id] = v
			}
			for _, v := range vars {
				c.SetVar(v, id, cur[v])
			}
		}
	}
	events := Trace(c, func(e computation.Event, ev *Event) {
		ev.Var = tags[e.ID]
		ev.Truth = c.Var(ev.Var, e.ID) != 0
		if len(vars) > 1 && ev.Var == vars[0] && rng.Intn(2) == 0 {
			ev.Var = ""
		}
	})
	return events, init
}

func mustParse(t *testing.T, text string) gpd.Spec {
	t.Helper()
	ps, err := gpd.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestSessionPredIDIsReserved: the open predicate cannot be unregistered,
// and no register frame may take its id, not even on a session opened
// without a predicate. Neither failure leaks a tenant slot.
func TestSessionPredIDIsReserved(t *testing.T) {
	eng := NewEngine(Config{Shards: 1})
	defer eng.Shutdown()
	if err := eng.Open("p", Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unregister("p", sessionPred); err == nil || !strings.Contains(err.Error(), sessionPred) {
		t.Errorf("unregister %s: error %v, want one naming the id", sessionPred, err)
	}
	if _, err := eng.Register("m", RegisterSpec{ID: sessionPred, Pred: "all(x)"}); err == nil || !strings.Contains(err.Error(), sessionPred) {
		t.Errorf("register %s on a mux session: error %v, want one naming the id", sessionPred, err)
	}
	if snap := eng.Snapshot(); snap.Predicates != 1 {
		t.Errorf("%d tenant slots held, want 1 (the open predicate of p)", snap.Predicates)
	}
	_, states, err := eng.ClosePredicates("p")
	if err != nil || len(states) != 1 || states[0].ID != sessionPred {
		t.Fatalf("close p: fan-out %+v, err %v; want the open predicate", states, err)
	}
	if snap := eng.Snapshot(); snap.Predicates != 0 {
		t.Errorf("%d tenant slots held after close, want 0", snap.Predicates)
	}
}

// TestUnitStepViolationOpenVsRegistered: in one session, a unit-step
// violation by a registered sum predicate fails only that predicate's
// update stream, while the same violation by the open predicate fails
// the session.
func TestUnitStepViolationOpenVsRegistered(t *testing.T) {
	s, err := NewSession(Spec{Pred: "sum(x) == 3", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pred.Parse("sum(y) == 3")
	if err != nil {
		t.Fatal(err)
	}
	// y starts at 5 on process 0, so the first y event (value 7) moves
	// it by +2. Read as x it would move x by +7 too; the open predicate
	// must carry x's value over an event of another variable.
	if err := s.Register(mux.Registration{ID: "y", Spec: ps, Init: []int64{5, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(Event{Proc: 0, VC: []int64{1, 0}, Var: "y", Val: 7}); err != nil {
		t.Fatalf("a registered predicate's violation failed the session: %v", err)
	}
	s.Flush()
	var yErr string
	for _, u := range s.Updates() {
		if u.ID == "y" {
			yErr = u.Err
		}
	}
	if !strings.Contains(yErr, relsum.ErrNotUnitStep.Error()) {
		t.Fatalf("y's update stream carries %q, want a unit-step error", yErr)
	}
	if err := s.Step(Event{Proc: 0, VC: []int64{2, 0}, Var: "x", Val: 1}); err != nil {
		t.Fatalf("x moved by one step after a y event: %v", err)
	}
	// x jumps from 1 to 3: the open predicate's violation is the session's.
	err = s.Step(Event{Proc: 0, VC: []int64{3, 0}, Val: 3})
	if !errors.Is(err, relsum.ErrNotUnitStep) || !strings.Contains(err.Error(), sessionPred) {
		t.Fatalf("open predicate's violation: error %v, want a unit-step error naming %s", err, sessionPred)
	}
	if !errors.Is(s.Err(), relsum.ErrNotUnitStep) {
		t.Fatalf("session error %v, want it sticky", s.Err())
	}
	if _, err := s.Finalize(); err == nil {
		t.Fatal("a failed session closed cleanly")
	}
}

// TestRegisterLongInitOverTCP: a register frame whose init lists more
// values than the session has processes gets an error naming init, for
// every family, and the server keeps answering. An open with such an
// init fails the same way.
func TestRegisterLongInitOverTCP(t *testing.T) {
	eng := NewEngine(Config{Shards: 1})
	defer eng.Shutdown()
	srv, err := ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	long := []int64{1, 1, 1}
	for _, text := range []string{"count(x) >= 1", "xor(x)", "levels(x): 0, 2", "sum(x) >= 1", "all(x)"} {
		_, err := cl.RegisterPredicate("m", RegisterSpec{ID: "p", Pred: text, Init: long})
		if err == nil || !strings.Contains(err.Error(), "init") {
			t.Errorf("%s with %d init values on 2 processes: error %v, want one naming init", text, len(long), err)
		}
		if _, _, err := cl.QueryUpdates("m"); err != nil {
			t.Fatalf("server stopped answering after %s: %v", text, err)
		}
	}
	if err := cl.Open("o", Spec{Pred: "count(x) >= 1", Procs: 2, Init: long}); err == nil || !strings.Contains(err.Error(), "init") {
		t.Errorf("open with %d init values on 2 processes: error %v, want one naming init", len(long), err)
	}
	if _, _, err := cl.ClosePredicates("m"); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); snap.Predicates != 0 {
		t.Errorf("%d tenant slots held after the failed registrations, want 0", snap.Predicates)
	}
}
