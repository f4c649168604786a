package main

import (
	"bytes"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

func ringTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	sim := gpd.NewSimulator(3, gpd.NewTokenRingProcs(3, 1, 1, 2))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gpd.WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestDOTFromStdin(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-vars", "tokens"}, ringTrace(t), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "digraph computation") || !strings.Contains(s, "tokens=") {
		t.Errorf("unexpected DOT output:\n%s", s)
	}
}

func TestDOTWithWitness(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-vars", "tokens", "-pred", "sum(tokens) == 1"}, ringTrace(t), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fillcolor=gold") {
		t.Error("expected highlighted witness frontier")
	}
}

func TestDOTWithCountWitness(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-pred", "count(tokens) >= 1"}, ringTrace(t), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fillcolor=gold") {
		t.Error("expected highlighted witness frontier")
	}
}

// TestDOTWithSumThresholdWitness: an order predicate on a sum highlights
// a cut whose sum satisfies it (one process, x = 5 after its only event,
// so the sum ranges over [0, 5] and only the final cut has sum >= 5).
func TestDOTWithSumThresholdWitness(t *testing.T) {
	c := gpd.New()
	p := c.AddProcess()
	c.SetVar("x", c.AddInternal(p), 5)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := gpd.WriteTrace(&trace, c); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-vars", "x", "-pred", "sum(x) >= 5"}, &trace, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fillcolor=gold") {
		t.Error("expected highlighted witness frontier")
	}
	for _, pred := range []string{"sum(x) >= 5", "sum(x) > 4", "sum(x) < 1", "sum(x) != 0"} {
		cut, err := witnessCut(c, pred)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		spec, err := gpd.ParseSpec(pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.SumVar("x", cut); !spec.Rel.Eval(got, spec.K) {
			t.Errorf("%s: witness %v has sum %d", pred, cut, got)
		}
	}
}

func TestDOTBadPredicates(t *testing.T) {
	for _, pred := range []string{
		"max(tokens) == 1",
		"sum(tokens == 1",
		"sum(tokens) == x",
		"sum(tokens) <> 1",
		"sum(tokens) == 99", // no witness
	} {
		var out bytes.Buffer
		if err := run([]string{"-pred", pred}, ringTrace(t), &out); err == nil {
			t.Errorf("pred %q should fail", pred)
		}
	}
}

func TestDOTMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-trace", "/no/such/file"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing trace file must error")
	}
}
