package experiments

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/reduction"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/sat"
)

// Fig1Matrix reproduces Figure 1, the landscape of known results in
// predicate detection, by actually exercising each class: each row runs a
// canonical instance through the corresponding detector (or reduction) and
// reports the implementation status alongside the complexity the figure
// states.
func Fig1Matrix() *Table {
	t := &Table{
		ID:      "F1",
		Title:   "Known results in predicate detection (Figure 1), each row exercised",
		Columns: []string{"predicate class", "complexity (per Fig. 1)", "source", "exercised by"},
	}
	// Conjunctive predicate: polynomial, Garg-Waldecker.
	{
		c := gen.Random(gen.Params{Seed: 1, Procs: 8, Events: 50, MsgFrac: 0.3})
		tabs := gen.BoolTables(2, c, 0.3)
		res, err := singular.Detect(c, conjunctionOf(c.NumProcs()), singular.TruthFromTables(tabs), singular.ChainCover, 1, nil)
		status := fmt.Sprintf("detector ran, found=%v", res.Found)
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		t.AddRow("conjunctive", "polynomial", "[9] Garg-Waldecker", status)
	}
	// Singular k-CNF, receive-ordered: polynomial (this paper).
	{
		c := gen.GroupFunnel(gen.Params{Seed: 3, Procs: 8, Events: 40, MsgFrac: 0.4}, 2, true)
		p := groupedPredicate(4, 2)
		res, err := singular.Detect(c, p, singular.TruthFromTables(gen.BoolTables(4, c, 0.3)), singular.ReceiveOrdered, 1, nil)
		status := fmt.Sprintf("detector ran, found=%v", res.Found)
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		t.AddRow("singular k-CNF (receive-ordered)", "polynomial", "this paper, Sec. 3.2", status)
	}
	// Singular k-CNF, general: NP-complete (this paper, Theorem 1).
	{
		f := &cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{1, 2}, {-1, 2}, {1, -2}}}
		in, err := reduction.SingularFromCNF(f)
		status := "reduction built"
		if err != nil {
			status = "ERROR: " + err.Error()
		} else {
			res, derr := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover, 1, nil)
			agree := res.Found == sat.Satisfiable(f)
			status = fmt.Sprintf("reduction agrees with SAT: %v", agree)
			if derr != nil {
				status = "ERROR: " + derr.Error()
			}
		}
		t.AddRow("singular k-CNF (general, k>=2)", "NP-complete", "this paper, Thm. 1", status)
	}
	// Relational sum with <, <=: polynomial (Chase-Garg).
	{
		c := gen.Random(gen.Params{Seed: 5, Procs: 8, Events: 50, MsgFrac: 0.3})
		gen.ArbitraryStepVar(6, c, "x", 4)
		b := relsum.Range(relsum.Var(c, "x"), 1, nil)
		t.AddRow("relational sum, relop in {<,<=,>,>=}", "polynomial", "[4] Chase-Garg / [18]",
			fmt.Sprintf("exact range [%d,%d] via max-flow closure", b.Min, b.Max))
	}
	// Sum equality, unit steps: polynomial (this paper).
	{
		c := gen.Random(gen.Params{Seed: 7, Procs: 8, Events: 50, MsgFrac: 0.3})
		gen.UnitStepVar(8, c, "x")
		ok, _, _, err := relsum.Possibly(relsum.Var(c, "x"), relsum.Eq, 0, 1, nil)
		status := fmt.Sprintf("detector ran, found=%v", ok)
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		t.AddRow("sum == k, unit-step variables", "polynomial", "this paper, Sec. 4.2", status)
	}
	// Sum equality, arbitrary increments: NP-complete (this paper).
	{
		c := gen.Random(gen.Params{Seed: 9, Procs: 2, Events: 3, MsgFrac: 0})
		gen.ArbitraryStepVar(10, c, "x", 5)
		_, _, _, err := relsum.Possibly(relsum.Var(c, "x"), relsum.Eq, 0, 1, nil)
		status := "unit-step guard fired (exhaustive/reduction path required)"
		if err == nil {
			status = "variable happened to be unit-step"
		}
		t.AddRow("sum == k, arbitrary increments", "NP-complete", "this paper, Thm. 3", status)
	}
	// Symmetric predicates: polynomial (this paper, corollary).
	{
		c := gen.Random(gen.Params{Seed: 11, Procs: 8, Events: 40, MsgFrac: 0.3})
		gen.BoolVar(12, c, "b", 0.3)
		ok, _, _, err := symmetric.Possibly(c, symmetric.Xor(8), func(e computation.Event) bool {
			return c.Var("b", e.ID) != 0
		}, 1, nil)
		status := fmt.Sprintf("detector ran, found=%v", ok)
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		t.AddRow("symmetric boolean predicates", "polynomial", "this paper, Sec. 4.3", status)
	}
	// Arbitrary predicates: NP-complete (Chase-Garg); lattice oracle.
	{
		c := gen.Random(gen.Params{Seed: 13, Procs: 4, Events: 6, MsgFrac: 0.4})
		n := lattice.Count(c)
		t.AddRow("arbitrary boolean predicate", "NP-complete", "[4] Chase-Garg",
			fmt.Sprintf("lattice oracle explored %d cuts", n))
	}
	// 2-local conjunctive: NP-complete (Stoller-Schneider); subsumed.
	t.AddRow("k-local conjunctive (k>=2)", "NP-complete", "[15] Stoller-Schneider",
		"subsumed by Theorem 1 (see E1)")
	return t
}

func conjunctionOf(n int) *singular.Predicate {
	p := &singular.Predicate{}
	for i := 0; i < n; i++ {
		p.Clauses = append(p.Clauses, singular.Clause{{Proc: computation.ProcID(i)}})
	}
	return p
}

func groupedPredicate(groups, size int) *singular.Predicate {
	p := &singular.Predicate{}
	proc := 0
	for g := 0; g < groups; g++ {
		var cl singular.Clause
		for j := 0; j < size; j++ {
			cl = append(cl, singular.Literal{Proc: computation.ProcID(proc)})
			proc++
		}
		p.Clauses = append(p.Clauses, cl)
	}
	return p
}

// Fig2Computation builds the running example of Figure 2: four processes
// with named events e, f, g, h such that e and f are consistent, e and g
// are inconsistent, g and h are ordered yet consistent, and e and f are
// independent while g and h are not. (The archived figure is degraded;
// the computation is reconstructed to exhibit exactly the relations the
// surrounding text asserts.)
func Fig2Computation() (*computation.Computation, map[string]computation.EventID) {
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	p2 := c.AddProcess()
	p3 := c.AddProcess()
	e := c.AddInternal(p0)
	e2 := c.AddInternal(p0)
	f := c.AddInternal(p1)
	g := c.AddInternal(p2)
	g2 := c.AddInternal(p2)
	h := c.AddInternal(p3)
	_ = g2
	if err := c.AddMessage(e2, g); err != nil {
		panic(err)
	}
	if err := c.AddMessage(g, h); err != nil {
		panic(err)
	}
	c.SetLabel(e, "e")
	c.SetLabel(f, "f")
	c.SetLabel(g, "g")
	c.SetLabel(h, "h")
	c.MustSeal()
	return c, map[string]computation.EventID{"e": e, "f": f, "g": g, "h": h}
}

// Fig2Table reproduces Figure 2's event relations, computed by the
// library rather than asserted.
func Fig2Table() *Table {
	t := &Table{
		ID:      "F2",
		Title:   "Example computation (Figure 2): pairwise event relations",
		Columns: []string{"pair", "consistent", "independent", "ordered"},
	}
	c, ev := Fig2Computation()
	pairs := [][2]string{{"e", "f"}, {"e", "g"}, {"e", "h"}, {"f", "g"}, {"f", "h"}, {"g", "h"}}
	for _, pr := range pairs {
		a, b := ev[pr[0]], ev[pr[1]]
		ordered := "no"
		if c.Precedes(a, b) {
			ordered = pr[0] + " -> " + pr[1]
		} else if c.Precedes(b, a) {
			ordered = pr[1] + " -> " + pr[0]
		}
		t.AddRow(pr[0]+","+pr[1],
			fmt.Sprint(c.ConsistentEvents(a, b)),
			fmt.Sprint(c.Independent(a, b)),
			ordered)
	}
	t.Notes = append(t.Notes,
		"e,f consistent and independent; e,g inconsistent (next(e) -> g); g,h ordered yet consistent — the text's examples")
	return t
}

// Fig3Table reproduces the Figure 3 transformation on a representative
// non-monotone formula: it reports the constructed computation's shape and
// cross-checks detection against the DPLL solver, extracting a satisfying
// assignment from the witness.
func Fig3Table() *Table {
	t := &Table{
		ID:      "F3",
		Title:   "The Theorem 1 transformation (Figure 3) on (x1|x2) & (!x1|x3) & (x2|!x3|x1)",
		Columns: []string{"quantity", "value"},
	}
	f := &cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{
		{1, 2}, {-1, 3}, {2, -3, 1},
	}}
	in, err := reduction.SingularFromCNF(f)
	if err != nil {
		t.AddRow("error", err.Error())
		return t
	}
	t.AddRow("clauses", len(f.Clauses))
	t.AddRow("processes", in.C.NumProcs())
	t.AddRow("events (incl. initial)", in.C.NumEvents())
	t.AddRow("conflict arrows (messages)", len(in.C.Messages()))
	t.AddRow("predicate", in.Pred.String())
	want := sat.Satisfiable(f)
	res, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover, 1, nil)
	if err != nil {
		t.AddRow("error", err.Error())
		return t
	}
	t.AddRow("DPLL satisfiable", want)
	t.AddRow("detection Possibly(pred)", res.Found)
	if res.Found {
		a, aerr := in.Assignment(res.Witness)
		if aerr != nil {
			t.AddRow("assignment", "ERROR: "+aerr.Error())
		} else {
			t.AddRow("extracted assignment satisfies formula", f.Eval(a))
			t.AddRow("assignment", fmt.Sprintf("x1=%v x2=%v x3=%v", a[1], a[2], a[3]))
		}
	}
	return t
}
