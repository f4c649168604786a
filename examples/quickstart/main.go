// Quickstart: build a small distributed computation by hand, ask the
// classic debugging questions, and see the three detector families at
// work.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	gpd "github.com/distributed-predicates/gpd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two processes. p0 raises a flag (event a), does something else
	// (a2) and tells p1; p1 raises its own flag (b) only after hearing
	// from p0.
	//
	//	p0: (init) --- a[flag] --- a2 ---.
	//	                                  \ message
	//	p1: (init) ----------------------- b[flag]
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a2, b); err != nil {
		return err
	}
	// Attach the boolean "flag" as a 0/1 variable: true exactly at a
	// (then lowered at a2) and at b.
	c.SetVar("flag", a, 1)
	c.SetVar("flag", b, 1)
	if err := c.Seal(); err != nil {
		return err
	}

	// Question 1 (conjunctive): could both flags ever be up at the same
	// time? The message forces a2 (where p0's flag is already down)
	// before b, so the answer is no — even though no single observer
	// could have checked all interleavings.
	conj, err := detect(c, "all(flag)")
	if err != nil {
		return err
	}
	fmt.Printf("Possibly(flag0 and flag1) = %v\n", conj.Holds)

	// Question 2 (singular CNF): could at least one flag be up while
	// the other is not yet past its first step? A disjunctive clause
	// over the two processes.
	sing, err := detect(c, fmt.Sprintf("cnf(flag): (%d | %d)", p0, p1))
	if err != nil {
		return err
	}
	fmt.Printf("Possibly(flag0 or flag1)  = %v (strategy %v, witness cut %v)\n",
		sing.Holds, sing.Strategy, sing.Witness)

	// Question 3 (relational sum): the flag count is a unit-step sum,
	// so Possibly(sum == k) is polynomial. How many flags can be up?
	min, max := gpd.SumRange(c, "flag")
	fmt.Printf("flag count over all consistent cuts: min=%d max=%d\n", min, max)
	one, err := detect(c, "sum(flag) == 1")
	if err != nil {
		return err
	}
	fmt.Printf("Possibly(sum flags == 1)  = %v (witness cut %v)\n", one.Holds, one.Witness)

	// Question 4 (modality): does EVERY execution pass through exactly
	// one raised flag?
	def, err := detect(c, "sum(flag) == 1", gpd.WithModality(gpd.ModalityDefinitely))
	if err != nil {
		return err
	}
	fmt.Printf("Definitely(sum flags == 1) = %v\n", def.Holds)

	// And the size of the search space all of this avoided enumerating:
	fmt.Printf("consistent cuts in this tiny computation: %d\n", gpd.CountCuts(c))
	return nil
}

// detect parses a predicate and decides it with the front door.
func detect(c *gpd.Computation, text string, opts ...gpd.Option) (gpd.Report, error) {
	spec, err := gpd.ParseSpec(text)
	if err != nil {
		return gpd.Report{}, err
	}
	return gpd.Detect(c, spec, opts...)
}
