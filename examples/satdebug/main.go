// Satdebug: walk the paper's NP-completeness reduction (Theorem 1) in the
// forward direction — solve a SAT instance by predicate detection.
//
// The pipeline: a 3-CNF formula is rewritten into non-monotone form, the
// Section 3.1 construction turns it into a computation plus a singular
// 2-CNF predicate, the chain-cover detector searches for a satisfying
// consistent cut, and the witness cut is mapped back to a satisfying
// assignment. This is the equivalence that pins the detection problem's
// complexity.
//
//	go run ./examples/satdebug
package main

import (
	"fmt"
	"log"

	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/core/reduction"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/sat"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	formulas := []*cnf.Formula{
		// Satisfiable: (x1|x2) & (!x1|x3) & (!x2|!x3).
		{NumVars: 3, Clauses: []cnf.Clause{{1, 2}, {-1, 3}, {-2, -3}}},
		// Unsatisfiable: all four 2-clauses over two variables.
		{NumVars: 2, Clauses: []cnf.Clause{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}},
		// A 3-CNF needing the non-monotone rewrite.
		{NumVars: 4, Clauses: []cnf.Clause{{1, 2, 3}, {-1, -2, -4}, {2, -3, 4}}},
	}
	for i, f0 := range formulas {
		fmt.Printf("--- formula %d: %v\n", i+1, f0)
		f, err := cnf.ToNonMonotone(f0)
		if err != nil {
			return err
		}
		if len(f.Clauses) != len(f0.Clauses) {
			fmt.Printf("    rewritten to non-monotone 3-CNF: %v\n", f)
		}
		in, err := reduction.SingularFromCNF(f)
		if err != nil {
			return err
		}
		fmt.Printf("    computation: %d processes, %d events, %d conflict arrows\n",
			in.C.NumProcs(), in.C.NumEvents(), len(in.C.Messages()))
		fmt.Printf("    predicate: %v\n", in.Pred)
		res, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover, 1, nil)
		if err != nil {
			return err
		}
		fmt.Printf("    Possibly(pred) = %v (%d combinations, %d eliminations)\n",
			res.Found, res.Combinations, res.Eliminations)
		dpll := sat.Satisfiable(f)
		fmt.Printf("    DPLL agrees: %v\n", dpll == res.Found)
		if res.Found {
			a, err := in.Assignment(res.Witness)
			if err != nil {
				return err
			}
			restricted := cnf.RestrictAssignment(a, f0.NumVars)
			fmt.Printf("    assignment from witness cut:")
			for v := 1; v <= f0.NumVars; v++ {
				fmt.Printf(" x%d=%v", v, restricted[v])
			}
			fmt.Printf("\n    satisfies original: %v\n", f0.Eval(restricted))
		}
	}
	return nil
}
