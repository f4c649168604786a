package gpd_test

// Agreement tests for the gpd.Detect front door: on random computations,
// Detect must give the same verdicts as the per-family kernels called
// directly (and, where no direct kernel exists, as the exhaustive
// generic oracles), across both modalities. Also: grammar round-trips
// and cross-surface spec equivalence with the streaming wire protocol.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// randomComputation builds a small random computation with a 0/1 variable
// "x" and a unit-step integer variable "u".
func randomComputation(seed int64) *gpd.Computation {
	c := gen.Random(gen.Params{Seed: seed, Procs: 4, Events: 5, MsgFrac: 1.0})
	gen.BoolVar(seed+1, c, "x", 0.4)
	gen.UnitStepVar(seed+2, c, "u")
	return c
}

// detect runs the front door and fails the test on error.
func detect(t *testing.T, c *gpd.Computation, pred string, m gpd.Modality) gpd.Report {
	t.Helper()
	spec, err := gpd.ParseSpec(pred)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", pred, err)
	}
	rep, err := gpd.Detect(c, spec, gpd.WithModality(m))
	if err != nil {
		t.Fatalf("Detect(%q, %v): %v", pred, m, err)
	}
	return rep
}

func TestDetectAgreesConjunctive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := randomComputation(seed)
		truth := func(e gpd.Event) bool { return c.Var("x", e.ID) != 0 }
		locals := make(map[gpd.ProcID]conjunctive.LocalPredicate, c.NumProcs())
		for p := 0; p < c.NumProcs(); p++ {
			locals[gpd.ProcID(p)] = truth
		}
		kernel := conjunctive.Detect(c, locals, nil)
		if rep := detect(t, c, "all(x)", gpd.ModalityPossibly); rep.Holds != kernel.Found {
			t.Errorf("seed %d: Detect possibly %v, kernel %v", seed, rep.Holds, kernel.Found)
		}
		kernelDef := conjunctive.DetectDefinitely(c, locals, nil)
		if rep := detect(t, c, "all(x)", gpd.ModalityDefinitely); rep.Holds != kernelDef {
			t.Errorf("seed %d: Detect definitely %v, kernel %v", seed, rep.Holds, kernelDef)
		}
	}
}

func TestDetectAgreesSum(t *testing.T) {
	relops := []gpd.Relop{gpd.Lt, gpd.Le, gpd.Eq, gpd.Ge, gpd.Gt, gpd.Ne}
	for seed := int64(0); seed < 4; seed++ {
		c := randomComputation(seed)
		for _, rel := range relops {
			for _, k := range []int64{-2, 0, 2} {
				pred := fmt.Sprintf("sum(u) %v %d", rel, k)
				kernel, _, _, err := relsum.Possibly(relsum.Var(c, "u"), rel, k, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep := detect(t, c, pred, gpd.ModalityPossibly); rep.Holds != kernel {
					t.Errorf("seed %d: Possibly(%s): Detect %v, kernel %v", seed, pred, rep.Holds, kernel)
				}
				kernelDef, err := relsum.Definitely(relsum.Var(c, "u"), rel, k, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep := detect(t, c, pred, gpd.ModalityDefinitely); rep.Holds != kernelDef {
					t.Errorf("seed %d: Definitely(%s): Detect %v, kernel %v", seed, pred, rep.Holds, kernelDef)
				}
			}
		}
	}
}

func TestDetectAgreesSymmetric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := randomComputation(seed)
		n := c.NumProcs()
		truth := func(e gpd.Event) bool { return c.Var("x", e.ID) != 0 }
		cases := []struct {
			pred string
			spec symmetric.Spec
		}{
			{"count(x) >= 2", symmetric.FromFunc(n, func(m int) bool { return m >= 2 })},
			{"count(x) == 0", symmetric.FromFunc(n, func(m int) bool { return m == 0 })},
			{"xor(x)", symmetric.Xor(n)},
			{"levels(x): 0, 2", symmetric.Spec{N: n, Levels: []int{0, 2}}},
		}
		for _, tc := range cases {
			kernel, _, _, err := symmetric.Possibly(c, tc.spec, truth, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep := detect(t, c, tc.pred, gpd.ModalityPossibly); rep.Holds != kernel {
				t.Errorf("seed %d: Possibly(%s): Detect %v, kernel %v", seed, tc.pred, rep.Holds, kernel)
			}
			kernelDef, err := symmetric.Definitely(c, tc.spec, truth, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep := detect(t, c, tc.pred, gpd.ModalityDefinitely); rep.Holds != kernelDef {
				t.Errorf("seed %d: Definitely(%s): Detect %v, kernel %v", seed, tc.pred, rep.Holds, kernelDef)
			}
		}
	}
}

func TestDetectAgreesCNF(t *testing.T) {
	const pred = "cnf(x): (0 | !1) & (2 | 3)"
	spec, err := gpd.ParseSpec(pred)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		c := randomComputation(seed)
		truth := func(e gpd.Event) bool { return c.Var("x", e.ID) != 0 }

		p := &singular.Predicate{}
		for _, cl := range spec.Clauses {
			var out singular.Clause
			for _, l := range cl {
				out = append(out, singular.Literal{Proc: gpd.ProcID(l.Proc), Negated: l.Negated})
			}
			p.Clauses = append(p.Clauses, out)
		}
		kernel, err := singular.Detect(c, p, truth, gpd.StrategyAuto, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep := detect(t, c, pred, gpd.ModalityPossibly); rep.Holds != kernel.Found {
			t.Errorf("seed %d: Possibly(%s): Detect %v, kernel %v", seed, pred, rep.Holds, kernel.Found)
		}

		// No direct Definitely kernel for CNF: compare against the exhaustive
		// oracle evaluating the clauses on each cut's frontier.
		holds := func(cc *gpd.Computation, k gpd.Cut) bool {
			front := cc.Frontier(k)
			for _, cl := range spec.Clauses {
				sat := false
				for _, l := range cl {
					if (cc.Var("x", front[l.Proc]) != 0) != l.Negated {
						sat = true
						break
					}
				}
				if !sat {
					return false
				}
			}
			return true
		}
		oracle := gpd.DefinitelyGeneric(c, holds)
		if rep := detect(t, c, pred, gpd.ModalityDefinitely); rep.Holds != oracle {
			t.Errorf("seed %d: Definitely(%s): Detect %v, oracle %v", seed, pred, rep.Holds, oracle)
		}
	}
}

// cutInFlight counts messages sent but not yet received in the cut.
func cutInFlight(cc *gpd.Computation, k gpd.Cut) int64 {
	var n int64
	for p := 0; p < cc.NumProcs(); p++ {
		ids := cc.ProcEvents(gpd.ProcID(p))
		for i := 1; i <= k[p]; i++ {
			switch cc.Event(ids[i]).Kind {
			case gpd.KindSend:
				n++
			case gpd.KindReceive:
				n--
			}
		}
	}
	return n
}

// ringComputation simulates a token ring: every event sends or receives
// at most one message, so the in-flight weight is unit-step as the Eq
// detector requires (the random generator can pack several messages onto
// one event).
func ringComputation(t *testing.T, seed int64) *gpd.Computation {
	t.Helper()
	sim := gpd.NewSimulator(seed, gpd.NewTokenRingProcs(4, 2, 1, 3))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDetectAgreesInFlight(t *testing.T) {
	relops := []gpd.Relop{gpd.Lt, gpd.Le, gpd.Eq, gpd.Ge, gpd.Gt, gpd.Ne}
	for seed := int64(0); seed < 4; seed++ {
		c := ringComputation(t, seed+1)
		for _, rel := range relops {
			for _, k := range []int64{0, 1, 3} {
				pred := fmt.Sprintf("inflight %v %d", rel, k)
				holds := func(cc *gpd.Computation, cut gpd.Cut) bool {
					return rel.Eval(cutInFlight(cc, cut), k)
				}
				oracle, _ := gpd.PossiblyGeneric(c, holds)
				rep := detect(t, c, pred, gpd.ModalityPossibly)
				if rep.Holds != oracle {
					t.Errorf("seed %d: Possibly(%s): Detect %v, oracle %v", seed, pred, rep.Holds, oracle)
				}
				if !rep.HasRange {
					t.Errorf("seed %d: Possibly(%s): missing range", seed, pred)
				}
				oracleDef := gpd.DefinitelyGeneric(c, holds)
				if rep := detect(t, c, pred, gpd.ModalityDefinitely); rep.Holds != oracleDef {
					t.Errorf("seed %d: Definitely(%s): Detect %v, oracle %v", seed, pred, rep.Holds, oracleDef)
				}
			}
		}
	}
}

// TestDetectWitnessesSatisfy checks that every witness cut Detect returns
// actually satisfies the predicate it was produced for.
func TestDetectWitnessesSatisfy(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := randomComputation(seed)
		for _, pred := range []string{"all(x)", "sum(u) == 0", "sum(u) < 0", "sum(u) >= 1", "sum(u) != 0", "count(x) >= 2", "xor(x)"} {
			rep := detect(t, c, pred, gpd.ModalityPossibly)
			if !rep.Holds || rep.Witness == nil {
				continue
			}
			var ok bool
			switch rep.Spec.Family {
			case gpd.FamilyConjunctive:
				ok = c.CountTrue(rep.Witness, func(e gpd.Event) bool { return c.Var("x", e.ID) != 0 }) == c.NumProcs()
			case gpd.FamilySum:
				ok = rep.Spec.Rel.Eval(c.SumVar("u", rep.Witness), rep.Spec.K)
			case gpd.FamilyCount:
				m := c.CountTrue(rep.Witness, func(e gpd.Event) bool { return c.Var("x", e.ID) != 0 })
				ok = rep.Spec.Rel.Eval(int64(m), rep.Spec.K)
			case gpd.FamilyXor:
				m := c.CountTrue(rep.Witness, func(e gpd.Event) bool { return c.Var("x", e.ID) != 0 })
				ok = m%2 == 1
			case gpd.FamilyInFlight:
				ok = cutInFlight(c, rep.Witness) == rep.Spec.K
			}
			if !ok {
				t.Errorf("seed %d: witness %v does not satisfy %s", seed, rep.Witness, pred)
			}
			if !c.CutConsistent(rep.Witness) {
				t.Errorf("seed %d: witness %v for %s is not consistent", seed, rep.Witness, pred)
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		c := ringComputation(t, seed+1)
		rep := detect(t, c, "inflight == 1", gpd.ModalityPossibly)
		if rep.Holds && rep.Witness != nil {
			if cutInFlight(c, rep.Witness) != 1 {
				t.Errorf("seed %d: inflight witness %v has %d in flight", seed, rep.Witness, cutInFlight(c, rep.Witness))
			}
			if !c.CutConsistent(rep.Witness) {
				t.Errorf("seed %d: inflight witness %v is not consistent", seed, rep.Witness)
			}
		}
	}
}

// TestDetectRejectsStrategyMisuse: WithStrategy is only meaningful for
// cnf under possibly; everything else must be an explicit error, not a
// silent ignore.
func TestDetectRejectsStrategyMisuse(t *testing.T) {
	c := randomComputation(1)
	sum, _ := gpd.ParseSpec("sum(u) == 0")
	if _, err := gpd.Detect(c, sum, gpd.WithStrategy(gpd.StrategyChainCover)); err == nil {
		t.Error("strategy on a sum predicate must error")
	}
	cnf, _ := gpd.ParseSpec("cnf(x): (0 | 1)")
	if _, err := gpd.Detect(c, cnf, gpd.WithStrategy(gpd.StrategyChainCover),
		gpd.WithModality(gpd.ModalityDefinitely)); err == nil {
		t.Error("strategy under definitely must error")
	}
	if _, err := gpd.Detect(c, cnf, gpd.WithStrategy(gpd.StrategyChainCover)); err != nil {
		t.Errorf("strategy on cnf possibly must be accepted: %v", err)
	}
}

// TestSpecRoundTrip: String output of every family re-parses to an equal
// spec — the property that keeps all surfaces on one grammar.
func TestSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"all(x)",
		"sum(x) >= 2",
		"sum(tokens) == 0",
		"count(x) != 1",
		"xor(x)",
		"levels(x): 0, 2, 4",
		"inflight == 1",
		"inflight < 3",
		"cnf(x): (0 | !1) & (2 | 3)",
	} {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		again, err := gpd.ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", spec.String(), text, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("round trip of %q: %+v != %+v", text, spec, again)
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %q: %v", text, err)
		}
		var fromJSON gpd.Spec
		if err := json.Unmarshal(blob, &fromJSON); err != nil {
			t.Fatalf("unmarshal %s (from %q): %v", blob, text, err)
		}
		if !reflect.DeepEqual(spec, fromJSON) {
			t.Errorf("JSON round trip of %q via %s: %+v != %+v", text, blob, spec, fromJSON)
		}
	}
}

// TestStreamSpecMatchesCanonical: the wire protocol's Spec converts to
// the same canonical Spec the grammar produces, so the online and
// offline surfaces cannot drift apart.
func TestStreamSpecMatchesCanonical(t *testing.T) {
	for _, text := range []string{"all(x)", "sum(x) == 5", "levels(x): 0, 2", "inflight >= 1"} {
		wire := stream.Spec{Pred: text, Procs: 3}
		got, err := wire.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%+v): %v", wire, err)
		}
		want, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream pred %q: Canonical() = %+v, ParseSpec = %+v", text, got, want)
		}
		if got.String() != text {
			t.Errorf("stream pred %q renders %q", text, got.String())
		}
	}
	// Family-shape validation is delegated to the canonical spec, on the
	// registration path every open predicate takes.
	bad := stream.Spec{Pred: "cnf(x): (0 | 5)", Procs: 3}
	if _, err := stream.NewSession(bad); err == nil {
		t.Error("cnf stream spec naming process 5 of 3 must fail validation")
	}
	// A spec without a predicate string names the field it lacks.
	if err := (stream.Spec{Procs: 3}).Validate(); err == nil || !strings.Contains(err.Error(), `"pred"`) {
		t.Errorf("stream spec without pred: got %v, want an error naming pred", err)
	}
}

// FuzzParseSpec fuzzes the canonical predicate grammar round-trip:
// whatever ParseSpec accepts must render with String() to text that
// re-parses to the identical Spec (a fixpoint), without ever panicking.
// Every surface of the repository (Detect, gpddetect, the streaming
// wire protocol) trusts this property when it echoes specs around.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"all(x)",
		"xor(ready)",
		"sum(u) >= 7",
		"sum(u) == 0",
		"count(x) < 2",
		"levels(x): 0, 2, 4",
		"inflight > 3",
		"cnf(x): (0 | !1) & (2)",
		"cnf(x): (!0)",
		"  all( spaced )  ",
		"levels(v): +1",
		"sum(v) >= 9223372036854775807",
		"all()",
		"levels(x):",
		"cnf(x): (0 | 0)",
		"nonsense",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			return // rejected input: only panics are bugs here
		}
		rendered := spec.String()
		again, err := gpd.ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok, but rendering %q does not re-parse: %v", text, rendered, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round-trip fixpoint broken: %q -> %#v -> %q -> %#v", text, spec, rendered, again)
		}
		if r2 := again.String(); r2 != rendered {
			t.Fatalf("String not stable: %q then %q (from %q)", rendered, r2, text)
		}
	})
}

// TestRangePossiblySolvesClosurePairOnce: a batch Possibly of every
// range family solves exactly one closure pair — the minimum and the
// maximum of its quantity — and reports the range it found; the ==
// witness scan and the level probes reuse the pair's extremal cuts.
func TestRangePossiblySolvesClosurePairOnce(t *testing.T) {
	c, err := gpd.NewSimulator(3, gpd.NewGossiperProcs(6, 8, 250)).Run()
	if err != nil {
		t.Fatal(err)
	}
	preds := []string{
		"sum(level) == 1", "sum(level) >= 2",
		"inflight == 1", "inflight >= 1",
		"count(flag) == 2", "count(flag) >= 3",
		"xor(flag)", "levels(flag): 1, 4",
	}
	for _, text := range preds {
		rep := detect(t, c, text, gpd.ModalityPossibly)
		if got := rep.Work.Counters["maxflow.closures"]; got != 2 {
			t.Errorf("Possibly(%s): maxflow.closures = %d, want 2", text, got)
		}
		if !rep.HasRange || rep.Min > rep.Max {
			t.Errorf("Possibly(%s): range [%d,%d] (HasRange %v)", text, rep.Min, rep.Max, rep.HasRange)
		}
	}
}
