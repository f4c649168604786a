// Election: verify a Chang–Roberts leader election run with both
// detection modalities.
//
// The safety question "could two processes ever consider themselves
// leader?" is a Possibly query over the recorded partial order; the
// progress question "does every execution consistent with the observation
// elect exactly one leader?" is a Definitely query. The paper's framework
// separates them cleanly: bad things are Possibly, good things are
// Definitely.
//
//	go run ./examples/election
package main

import (
	"fmt"
	"log"
	"math/rand"

	gpd "github.com/distributed-predicates/gpd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 6
	for seed := int64(1); seed <= 3; seed++ {
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		sim := gpd.NewSimulator(seed, gpd.NewElectionProcs(n, perm))
		c, err := sim.Run()
		if err != nil {
			return err
		}
		fmt.Printf("seed %d: ids %v, %d events, %d messages\n",
			seed, perm, c.NumEvents(), len(c.Messages()))

		// Safety: no consistent cut with two self-declared leaders.
		twoLeaders, err := detect(c, "sum("+gpd.VarLeader+") >= 2")
		if err != nil {
			return err
		}
		fmt.Printf("  Possibly(#leaders >= 2)  = %-5v (safety: must be false)\n", twoLeaders.Holds)

		// Progress: every run of the computation passes through a state
		// with exactly one leader (and stays there — leaders never
		// abdicate, so = 1 at the end).
		elected, err := detect(c, "sum("+gpd.VarLeader+") == 1", gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			return err
		}
		fmt.Printf("  Definitely(#leaders == 1) = %-5v (progress: must be true)\n", elected.Holds)

		// A richer question: was there a reachable moment with NO
		// remaining candidate but also no leader yet? (There must not
		// be: the winner stays candidate until it wins.)
		gap, _ := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			cand := cc.SumVar(gpd.VarCandidate, k)
			lead := cc.SumVar(gpd.VarLeader, k)
			return cand == 0 && lead == 0
		})
		fmt.Printf("  Possibly(no candidate & no leader) = %-5v (must be false)\n", gap)
	}
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
