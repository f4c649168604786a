package gpd_test

// The replay-vs-batch agreement matrix: for every family the detector
// registry knows, under both modalities, the StrategyReplay route (the
// streaming state machine driven over a causal linearization) must reach
// the same verdict as the StrategyBatch route (the offline algorithms).
// This is the cross-check that keeps the online and offline halves of
// the detector kernel from drifting apart.

import (
	"errors"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	idetect "github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/gen"
)

func TestReplayBatchAgreementMatrix(t *testing.T) {
	// One row per (family, predicate, computation shape). The random
	// computations are message-dense with receives everywhere, and their
	// variables start true on some processes; the ring computations have
	// unit-step in-flight weight, which the inflight == detector
	// requires.
	rows := []struct {
		family SpecFamilyName
		preds  []string
		comp   func(seed int64) *gpd.Computation
	}{
		{"conjunctive", []string{"all(x)"}, randomComputation},
		{"sum", []string{"sum(u) == 0", "sum(u) == 2", "sum(u) >= 1", "sum(u) < 0", "sum(u) != 0"}, randomComputation},
		{"count", []string{"count(x) >= 2", "count(x) == 0", "count(x) != 4"}, randomComputation},
		{"xor", []string{"xor(x)"}, randomComputation},
		{"levels", []string{"levels(x): 0, 2", "levels(x): 4"}, randomComputation},
		{"inflight", []string{"inflight >= 1", "inflight > 2", "inflight != 0"}, randomComputation},
		{"inflight", []string{"inflight == 0", "inflight == 2", "inflight <= 1"}, func(seed int64) *gpd.Computation {
			return ringComputationSeed(t, seed+1)
		}},
	}
	modalities := []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely}

	covered := map[string]bool{}
	initTrue := 0 // initially-true processes under the conjunctive row
	for _, row := range rows {
		covered[string(row.family)] = true
		for seed := int64(0); seed < 4; seed++ {
			c := row.comp(seed)
			for p := 0; row.family == "conjunctive" && p < c.NumProcs(); p++ {
				if c.Var("x", c.Initial(gpd.ProcID(p)).ID) != 0 {
					initTrue++
				}
			}
			for _, text := range row.preds {
				spec, err := gpd.ParseSpec(text)
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", text, err)
				}
				for _, m := range modalities {
					batch, err := gpd.Detect(c, spec, gpd.WithModality(m))
					if err != nil {
						t.Fatalf("seed %d: batch %v(%s): %v", seed, m, text, err)
					}
					replay, err := gpd.Detect(c, spec, gpd.WithModality(m),
						gpd.WithStrategy(gpd.StrategyReplay))
					if err != nil {
						t.Fatalf("seed %d: replay %v(%s): %v", seed, m, text, err)
					}
					if replay.Holds != batch.Holds {
						t.Errorf("seed %d: %v(%s): replay %v, batch %v",
							seed, m, text, replay.Holds, batch.Holds)
					}
					// Replay drives a state machine forward; it never
					// constructs witness cuts.
					if replay.Witness != nil {
						t.Errorf("seed %d: %v(%s): replay fabricated a witness cut", seed, m, text)
					}
					// Where both routes track an exact range, it must agree.
					if batch.HasRange && replay.HasRange && (replay.Min != batch.Min || replay.Max != batch.Max) {
						t.Errorf("seed %d: %v(%s): replay range [%d,%d], batch [%d,%d]",
							seed, m, text, replay.Min, replay.Max, batch.Min, batch.Max)
					}
				}
			}
		}
	}

	if initTrue == 0 {
		t.Error("no conjunctive computation starts true on any process; the initial-state seeding goes unchecked")
	}

	// Completeness: every family the registry registers must appear in
	// the matrix (or be an explicit batch-only exception below), so a
	// newly added family cannot silently skip the cross-check.
	batchOnly := map[string]bool{"cnf": true, "equilevel": true}
	for _, f := range idetect.Families() {
		if !covered[f.String()] && !batchOnly[f.String()] {
			t.Errorf("registered family %v is missing from the agreement matrix", f)
		}
	}
}

// TestReplayConjunctiveInitialStates: the replay route seeds the token
// checker with the initially-true processes, so on small computations
// whose flag starts true on some processes replay agrees with batch under
// both modalities. The test counts the computations whose Possibly
// verdict hinges on the initial states (it differs once they are forced
// false) and requires some, so the seeding cannot go unchecked.
func TestReplayConjunctiveInitialStates(t *testing.T) {
	spec, err := gpd.ParseSpec("all(x)")
	if err != nil {
		t.Fatal(err)
	}
	hinges := 0
	for seed := int64(0); seed < 96; seed++ {
		c := gen.Random(gen.Params{Seed: seed, Procs: 2 + int(seed%3), Events: 3, MsgFrac: 0.8})
		gen.BoolVar(seed, c, "x", 0.6)
		for _, m := range []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely} {
			batch, err := gpd.Detect(c, spec, gpd.WithModality(m))
			if err != nil {
				t.Fatal(err)
			}
			replay, err := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithStrategy(gpd.StrategyReplay))
			if err != nil {
				t.Fatal(err)
			}
			if replay.Holds != batch.Holds {
				t.Errorf("seed %d: %v(all(x)): replay %v, batch %v", seed, m, replay.Holds, batch.Holds)
			}
			if m != gpd.ModalityPossibly || !batch.Holds {
				continue
			}
			for p := 0; p < c.NumProcs(); p++ {
				c.SetVar("x", c.Initial(gpd.ProcID(p)).ID, 0)
			}
			if cold, err := gpd.Detect(c, spec); err == nil && !cold.Holds {
				hinges++
			}
			gen.BoolVar(seed, c, "x", 0.6) // restore the initial states
		}
	}
	if hinges == 0 {
		t.Error("no computation's verdict depends on its initial states")
	}
}

// SpecFamilyName documents the matrix rows; the registry completeness
// check below matches on these names.
type SpecFamilyName string

// ringComputationSeed is ringComputation without the fixed +1 offset the
// older tests bake in, so matrix seeds read naturally.
func ringComputationSeed(t *testing.T, seed int64) *gpd.Computation {
	t.Helper()
	return ringComputation(t, seed)
}

// TestReplayRejectsBatchOnlyFamilies: families without an incremental
// detector (cnf) must fail the replay route with a clear error instead
// of a wrong verdict.
func TestReplayRejectsBatchOnlyFamilies(t *testing.T) {
	c := randomComputation(1)
	spec, err := gpd.ParseSpec("cnf(x): (0 | !1)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyReplay))
	if err == nil || !strings.Contains(err.Error(), "no incremental detector") {
		t.Fatalf("cnf replay: want 'no incremental detector' error, got %v", err)
	}
}

// TestReplayUnitStepViolation: replaying inflight == k over a
// computation with multi-message events must surface ErrNotUnitStep,
// exactly as a streaming session would.
func TestReplayUnitStepViolation(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		c := gen.Random(gen.Params{Seed: seed, Procs: 4, Events: 6, MsgFrac: 1.0})
		spec, err := gpd.ParseSpec("inflight == 1")
		if err != nil {
			t.Fatal(err)
		}
		_, err = gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyReplay))
		if err == nil {
			continue // this seed happened to be unit-weight; try another
		}
		if !errors.Is(err, gpd.ErrNotUnitStep) {
			t.Fatalf("seed %d: want ErrNotUnitStep, got %v", seed, err)
		}
		return
	}
	t.Skip("no seed produced a multi-message event")
}

// TestReplayReportsWork: the replay route accounts its event count into
// the run's work counters under the replay span.
func TestReplayReportsWork(t *testing.T) {
	c := randomComputation(3)
	spec, err := gpd.ParseSpec("sum(u) >= 1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyReplay))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work.Counters["replay.events"] == 0 {
		t.Errorf("replay run reported no replay.events work: %+v", rep.Work.Counters)
	}
	found := false
	for _, sp := range rep.Work.Spans {
		if strings.HasPrefix(sp.Name, "replay:") {
			found = true
		}
	}
	if !found {
		t.Errorf("replay run has no replay: span, spans %+v", rep.Work.Spans)
	}
}
