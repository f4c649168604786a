// Command gpdreduce demonstrates the Theorem 1 pipeline: it reads a CNF
// formula in DIMACS format, rewrites it into non-monotone 3-CNF, builds
// the singular 2-CNF detection instance, runs the detector, and — when the
// formula is satisfiable — prints the satisfying assignment extracted from
// the witness cut. A DPLL solver cross-checks the verdict.
//
// Usage:
//
//	gpdreduce < formula.cnf
//	gpdreduce -f formula.cnf -trace out.json   # also dump the computation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/reduction"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/sat"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpdreduce:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpdreduce", flag.ContinueOnError)
	file := fs.String("f", "-", "DIMACS CNF input file (- for stdin)")
	traceOut := fs.String("trace", "", "write the constructed computation to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	f0, err := cnf.ParseDIMACS(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "input: %d variables, %d clauses\n", f0.NumVars, len(f0.Clauses))
	f, err := cnf.ToNonMonotone(f0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "non-monotone 3-CNF: %d variables, %d clauses\n", f.NumVars, len(f.Clauses))
	in, err := reduction.SingularFromCNF(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "computation: %d processes, %d events, %d conflict arrows\n",
		in.C.NumProcs(), in.C.NumEvents(), len(in.C.Messages()))
	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := computation.WriteTrace(out, in.C); err != nil {
			return err
		}
	}
	res, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover, 1, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Possibly(singular 2-CNF) = %v (%d combination(s), %d elimination(s))\n",
		res.Found, res.Combinations, res.Eliminations)
	dpll := sat.Satisfiable(f)
	fmt.Fprintf(stdout, "DPLL cross-check: satisfiable = %v, agreement = %v\n", dpll, dpll == res.Found)
	if res.Found {
		a, err := in.Assignment(res.Witness)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, "assignment:")
		for v := 1; v <= f0.NumVars; v++ {
			fmt.Fprintf(stdout, " x%d=%v", v, a[v])
		}
		fmt.Fprintln(stdout)
		restricted := cnf.RestrictAssignment(a, f0.NumVars)
		fmt.Fprintf(stdout, "original formula satisfied: %v\n", f0.Eval(restricted))
	}
	return nil
}
