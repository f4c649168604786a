package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// TestRetainedSessionsDecideDefinitelyLikeBatch: a retaining session of
// every streamed family — variables that start true or nonzero on some
// processes included — closes with the Possibly and Definitely verdicts
// gpd.Detect reaches on the computation it streamed. Channel occupancy
// is decided from the delivered deltas alone.
func TestRetainedSessionsDecideDefinitelyLikeBatch(t *testing.T) {
	families := map[string]bool{}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := gen.Random(gen.Params{Seed: seed, Procs: 2 + rng.Intn(3), Events: 3 + rng.Intn(3), MsgFrac: 0.7})
		gen.BoolVar(seed, c, varName, 0.4)
		n := c.NumProcs()
		boolEvents, boolInit := BoolTrace(c, varName)
		cases := []struct {
			pred   string
			events []Event
			init   []int64
		}{
			{"all(x)", boolEvents, boolInit},
			{fmt.Sprintf("count(x) >= %d", 1+rng.Intn(n)), boolEvents, boolInit},
			{"xor(x)", boolEvents, boolInit},
			{fmt.Sprintf("levels(x): 0, %d", n), boolEvents, boolInit},
			{fmt.Sprintf("inflight >= %d", 1+rng.Intn(2)), InFlightTrace(c), nil},
		}
		gen.UnitStepVar(seed, c, "u")
		sumEvents, sumInit := SumTrace(c, "u")
		cases = append(cases, struct {
			pred   string
			events []Event
			init   []int64
		}{fmt.Sprintf("sum(u) == %d", rng.Intn(3)-1), sumEvents, sumInit})
		for _, tc := range cases {
			ps, err := gpd.ParseSpec(tc.pred)
			if err != nil {
				t.Fatal(err)
			}
			families[ps.Family.String()] = true
			pos, err := gpd.Detect(c, ps)
			if err != nil {
				t.Fatal(err)
			}
			def, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
			if err != nil {
				t.Fatal(err)
			}
			v, _ := replay(t, rng, Spec{Pred: tc.pred, Procs: n, Init: tc.init, Retain: true}, tc.events)
			if v.Possibly != pos.Holds || !v.DefinitelyKnown || v.Definitely != def.Holds {
				t.Errorf("seed %d: %s: session Possibly=%v Definitely=%v (known %v), gpd.Detect %v/%v",
					seed, tc.pred, v.Possibly, v.Definitely, v.DefinitelyKnown, pos.Holds, def.Holds)
			}
		}
	}
	if len(families) != 6 {
		t.Errorf("covered families %v, want all six streamed families", families)
	}
}

// TestRetainedSessionInvolvedDefinitely: a retaining conjunction over
// some processes closes with the verdicts gpd.Detect reaches when the
// other processes read true in every state, whatever their events carry.
func TestRetainedSessionInvolvedDefinitely(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := gen.Random(gen.Params{Seed: seed, Procs: 3, Events: 4, MsgFrac: 0.7})
		gen.BoolVar(seed, c, varName, 0.4)
		events, init := BoolTrace(c, varName)
		for _, id := range c.ProcEvents(1) { // process 1 is not involved
			c.SetVar(varName, id, 1)
		}
		ps, err := gpd.ParseSpec("all(x)")
		if err != nil {
			t.Fatal(err)
		}
		pos, err := gpd.Detect(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		def, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := replay(t, rng, Spec{Pred: "all(x)", Procs: 3, Involved: []int{0, 2}, Init: init, Retain: true}, events)
		if v.Possibly != pos.Holds || v.Definitely != def.Holds {
			t.Errorf("seed %d: session Possibly=%v Definitely=%v, gpd.Detect %v/%v",
				seed, v.Possibly, v.Definitely, pos.Holds, def.Holds)
		}
	}
}

// TestSlicedSessionLatchesInitialCut: a sliced conjunction whose initial
// cut satisfies it latches at open, and at close the slice — bottoming
// at the initial cut — agrees with the token checker and decides
// Definitely true.
func TestSlicedSessionLatchesInitialCut(t *testing.T) {
	s, err := NewSession(Spec{Pred: "all(x)", Procs: 2, Init: []int64{1, 1}, Slice: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Possibly() {
		t.Fatal("initial cut satisfies all(x) but the session did not latch at open")
	}
	for _, ev := range []Event{
		{Proc: 0, VC: []int64{1, 0}},
		{Proc: 1, VC: []int64{1, 1}},
	} {
		if err := s.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Finalize()
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if !v.Possibly || !v.DefinitelyKnown || !v.Definitely {
		t.Fatalf("verdict %+v, want Possibly and Definitely true (known)", v)
	}
}

// TestSessionInvolvedChecked: sessions and register frames share the
// mux group's involved-process check, whose error names the field.
func TestSessionInvolvedChecked(t *testing.T) {
	for _, spec := range []Spec{
		{Pred: "all(x)", Procs: 4, Involved: []int{7}},
		{Pred: "sum(x) >= 1", Procs: 4, Involved: []int{0}},
	} {
		if _, err := NewSession(spec); err == nil || !strings.Contains(err.Error(), "involved") {
			t.Errorf("NewSession(%+v): error %v, want one naming involved", spec, err)
		}
	}
	s, err := NewSession(Spec{Mux: true, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []mux.Registration{
		{ID: "a", Spec: mustCanonical(t, "all(x)"), Involved: []int{7}},
		{ID: "b", Spec: mustCanonical(t, "xor(x)"), Involved: []int{0}},
	} {
		if err := s.Register(r); err == nil || !strings.Contains(err.Error(), "involved") {
			t.Errorf("Register(%s): error %v, want one naming involved", r.ID, err)
		}
	}
}

func mustCanonical(t *testing.T, text string) pred.Spec {
	t.Helper()
	ps, err := pred.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}
