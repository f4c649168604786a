// Command gpddot renders a JSON computation trace as a Graphviz digraph,
// optionally highlighting a witness cut found by one of the detectors.
//
// Usage:
//
//	gpddot -trace ring.json > ring.dot
//	gpddot -trace ring.json -vars tokens -pred 'sum(tokens) == 1' > witness.dot
//	dot -Tsvg ring.dot > ring.svg
//
// With -pred (the predicate grammar shared with gpddetect), the witness
// cut gpd.Detect constructs is highlighted: its frontier is drawn bold and
// its interior shaded. True events of the first -vars variable are
// double-circled.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpddot:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpddot", flag.ContinueOnError)
	trace := fs.String("trace", "-", "trace file (- for stdin)")
	vars := fs.String("vars", "", "comma-separated variable names to annotate")
	pred := fs.String("pred", "", "optional predicate whose witness cut to highlight (e.g. 'sum(x) >= 5')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = stdin
	if *trace != "-" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	c, err := gpd.ReadTrace(r)
	if err != nil {
		return err
	}
	opts := computation.DOTOptions{}
	if *vars != "" {
		opts.ShowVars = strings.Split(*vars, ",")
		name := opts.ShowVars[0]
		opts.TrueEvents = func(e gpd.Event) bool { return c.Var(name, e.ID) != 0 }
	}
	if *pred != "" {
		cut, err := witnessCut(c, *pred)
		if err != nil {
			return err
		}
		opts.Highlight = cut
	}
	return computation.WriteDOT(stdout, c, opts)
}

// witnessCut decides Possibly(pred) with gpd.Detect and returns the
// witness cut it constructed.
func witnessCut(c *gpd.Computation, pred string) (gpd.Cut, error) {
	spec, err := gpd.ParseSpec(pred)
	if err != nil {
		return nil, err
	}
	rep, err := gpd.Detect(c, spec)
	if err != nil {
		return nil, err
	}
	if !rep.Holds {
		return nil, fmt.Errorf("predicate %q has no witness: no consistent cut satisfies it", pred)
	}
	if rep.Witness == nil {
		return nil, fmt.Errorf("predicate %q holds, but its detector builds no witness cut", pred)
	}
	return rep.Witness, nil
}
