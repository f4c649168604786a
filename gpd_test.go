package gpd_test

import (
	"bytes"
	"errors"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// buildDebugScenario assembles the two-process computation used across the
// public API tests: p0 flips a flag at event a; p1 flips at event b after a
// message from a third event.
func buildDebugScenario(t *testing.T) (*gpd.Computation, gpd.EventID, gpd.EventID) {
	t.Helper()
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a2, b); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c, a, b
}

// flagEvents sets the 0/1 variable name to 1 at the given events.
func flagEvents(c *gpd.Computation, name string, ids ...gpd.EventID) {
	for _, id := range ids {
		c.SetVar(name, id, 1)
	}
}

func TestPossiblyConjunctivePublic(t *testing.T) {
	c, a, b := buildDebugScenario(t)
	flagEvents(c, "f", a, b)
	if detect(t, c, "all(f)", gpd.ModalityPossibly).Holds {
		t.Fatal("a happened-before b through a2: conjunction must not hold")
	}
	flagEvents(c, "g", a, c.Initial(1).ID)
	if !detect(t, c, "all(g)", gpd.ModalityPossibly).Holds {
		t.Fatal("a is consistent with p1's initial state")
	}
}

func TestPossiblySingularPublic(t *testing.T) {
	c, a, b := buildDebugScenario(t)
	flagEvents(c, "f", a, b)
	if !detect(t, c, "cnf(f): (0 | 1)", gpd.ModalityPossibly).Holds {
		t.Fatal("disjunction (x0 | x1) holds at the cut through a")
	}
}

func TestSumAPIsPublic(t *testing.T) {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	e0 := c.AddInternal(p0)
	e1 := c.AddInternal(p1)
	c.SetVar("x", e0, 1)
	c.SetVar("x", e1, 1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	min, max := gpd.SumRange(c, "x")
	if min != 0 || max != 2 {
		t.Fatalf("SumRange = [%d,%d], want [0,2]", min, max)
	}
	rep := detect(t, c, "sum(x) == 1", gpd.ModalityPossibly)
	if !rep.Holds {
		t.Fatal("Possibly(sum(x) == 1) must hold")
	}
	if got := c.SumVar("x", rep.Witness); got != 1 {
		t.Fatalf("witness sum = %d", got)
	}
	if !detect(t, c, "sum(x) == 1", gpd.ModalityDefinitely).Holds {
		t.Fatal("Definitely(sum(x) == 1) must hold: every run passes 0->1->2")
	}
	if err := gpd.ValidateUnitStep(c, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := gpd.ParseRelop(">="); err != nil {
		t.Fatal(err)
	}
}

func TestUnitStepErrorSurfaced(t *testing.T) {
	c := gpd.New()
	p := c.AddProcess()
	e := c.AddInternal(p)
	c.SetVar("x", e, 10)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	spec, err := gpd.ParseSpec("sum(x) == 5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpd.Detect(c, spec); !errors.Is(err, gpd.ErrNotUnitStep) {
		t.Fatalf("err = %v, want ErrNotUnitStep", err)
	}
}

func TestSymmetricPublic(t *testing.T) {
	c, a, b := buildDebugScenario(t)
	flagEvents(c, "f", a, b)
	rep := detect(t, c, "xor(f)", gpd.ModalityPossibly)
	if !rep.Holds {
		t.Fatal("Possibly(xor(f)) must hold")
	}
	if rep.Witness == nil {
		t.Fatal("expected witness cut")
	}
	if !detect(t, c, "xor(f)", gpd.ModalityDefinitely).Holds {
		t.Fatal("the flips are ordered, so every run passes through count=1")
	}
}

func TestGenericOraclesPublic(t *testing.T) {
	c, a, _ := buildDebugScenario(t)
	ok, cut := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
		return k.PassesThrough(cc.Event(a))
	})
	if !ok || !cut.PassesThrough(c.Event(a)) {
		t.Fatal("generic possibly failed")
	}
	if !gpd.DefinitelyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
		return k.Size() == 1
	}) {
		t.Fatal("every run passes through level 1")
	}
	if n := gpd.CountCuts(c); n <= 0 {
		t.Fatalf("CountCuts = %d", n)
	}
}

func TestSimulatorPublic(t *testing.T) {
	sim := gpd.NewSimulator(1, gpd.NewTokenRingProcs(3, 1, 1, 2))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Events(func(e gpd.Event) bool {
		if c.Var(gpd.VarTokens, e.ID) > 0 {
			c.SetVar("holder", e.ID, 1)
		}
		return true
	})
	if !detect(t, c, "count(holder) == 1", gpd.ModalityPossibly).Holds {
		t.Fatal("some cut must show exactly one token holder")
	}
}

// TestMonitorPublic reaches the online monitor's detector — the
// incremental state machine gpdserver runs per session — through the
// public front door: two processes raising a flag concurrently.
func TestMonitorPublic(t *testing.T) {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.SetVar("up", c.AddInternal(p0), 1)
	c.SetVar("up", c.AddInternal(p1), 1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	spec, err := gpd.ParseSpec("all(up)")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyReplay))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatal("online detector missed two concurrent true events")
	}
	if batch := detect(t, c, "all(up)", gpd.ModalityPossibly); !batch.Holds || len(batch.Witness) != 2 {
		t.Fatalf("batch verdict %v with witness %v, want a two-process witness", batch.Holds, batch.Witness)
	}
}

func TestTraceRoundTripPublic(t *testing.T) {
	c, a, _ := buildDebugScenario(t)
	var buf bytes.Buffer
	if err := gpd.WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := gpd.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != c.NumEvents() {
		t.Fatal("trace round trip lost events")
	}
	_ = a
}

func TestDefinitelySingularPublic(t *testing.T) {
	c, a, b := buildDebugScenario(t)
	flagEvents(c, "f", a, b)
	// Every run passes through a (p0's first event), where the clause holds.
	if !detect(t, c, "cnf(f): (0 | 1)", gpd.ModalityDefinitely).Holds {
		t.Fatal("the disjunction holds on every run")
	}
	// Non-singular predicates (a process shared between clauses) are
	// rejected.
	spec, err := gpd.ParseSpec("cnf(f): (0) & (0)")
	if err == nil {
		_, err = gpd.Detect(c, spec, gpd.WithModality(gpd.ModalityDefinitely))
	}
	if err == nil {
		t.Fatal("non-singular predicate must be rejected")
	}
}

func TestDefinitelyConjunctivePublic(t *testing.T) {
	// Two processes that become true and stay true: definite.
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	flagEvents(c, "stable", a, b)
	if !detect(t, c, "all(stable)", gpd.ModalityDefinitely).Holds {
		t.Fatal("stable conjunction must be definite")
	}
	// A conjunct that is never true cannot be definite.
	if detect(t, c, "all(never)", gpd.ModalityDefinitely).Holds {
		t.Fatal("never-true conjunct cannot be definite")
	}
}
