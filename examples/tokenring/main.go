// Tokenring: check conservation predicates on a token-passing ring with
// the relational sum detectors of Section 4 of the paper.
//
// Each process's variable counts the tokens it holds; the global token
// count is a unit-step sum, so Possibly(sum == k) and Definitely(sum == k)
// are decided exactly. While a token is in flight the observable count
// drops — "exactly k tokens" is the paper's own example of a predicate
// that was previously undetectable in polynomial time.
//
//	go run ./examples/tokenring
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
	const (
		procs  = 6
		tokens = 2
	)
	sim := gpd.NewSimulator(42, gpd.NewTokenRingProcs(procs, tokens, 2, 4))
	c, err := sim.Run()
	if err != nil {
		return err
	}
	fmt.Printf("ring of %d processes, %d tokens: %d events, %d messages\n",
		procs, tokens, c.NumEvents(), len(c.Messages()))

	if err := gpd.ValidateUnitStep(c, gpd.VarTokens); err != nil {
		return fmt.Errorf("token counts should be unit-step: %w", err)
	}
	min, max := gpd.SumRange(c, gpd.VarTokens)
	fmt.Printf("observable token count range: [%d, %d]\n", min, max)

	for k := int64(0); k <= int64(tokens)+1; k++ {
		pred := fmt.Sprintf("sum(%s) == %d", gpd.VarTokens, k)
		poss, err := detect(c, pred)
		if err != nil {
			return err
		}
		def, err := detect(c, pred, gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			return err
		}
		fmt.Printf("tokens == %d: possibly=%-5v definitely=%v\n", k, poss.Holds, def.Holds)
	}

	// Conservation violation check: can the count ever exceed the
	// number of tokens in the system? (It must not.)
	over, err := detect(c, fmt.Sprintf("sum(%s) > %d", gpd.VarTokens, tokens))
	if err != nil {
		return err
	}
	fmt.Printf("conservation violated (count > %d possible): %v\n", tokens, over.Holds)

	// The same question expressed as a symmetric predicate on the
	// boolean "holds at least one token": exactly-k-holders. The
	// boolean is derived into its own 0/1 variable first.
	c.Events(func(e gpd.Event) bool {
		if c.Var(gpd.VarTokens, e.ID) > 0 {
			c.SetVar("holder", e.ID, 1)
		}
		return true
	})
	holders, err := detect(c, fmt.Sprintf("count(holder) == %d", tokens))
	if err != nil {
		return err
	}
	fmt.Printf("some cut with exactly %d token holders: %v", tokens, holders.Holds)
	if holders.Holds {
		fmt.Printf(" (witness %v)", holders.Witness)
	}
	fmt.Println()
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
