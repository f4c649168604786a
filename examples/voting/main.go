// Voting: symmetric predicates over a gossip-based vote (Section 4.3 of
// the paper) — absence of a simple majority, exclusive-or, not-all-equal.
//
// Each process holds a yes/no opinion and may change its mind as gossip
// arrives. The detectors answer global questions about states the system
// might have passed through: was there ever a moment with no majority?
// Could the votes have been split exactly down the middle?
//
//	go run ./examples/voting
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"

	gpd "github.com/distributed-predicates/gpd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const procs = 8
	sim := gpd.NewSimulator(7, gpd.NewVoterProcs(procs, 5, func(i int) bool { return i%3 == 0 }))
	c, err := sim.Run()
	if err != nil {
		return err
	}
	yes := func(e gpd.Event) bool { return c.Var(gpd.VarYes, e.ID) != 0 }
	fmt.Printf("%d voters, %d events, %d gossip messages\n",
		procs, c.NumEvents(), len(c.Messages()))

	// Each question is a symmetric predicate: a set of yes counts at
	// which it holds.
	questions := []struct {
		name string
		pred string
	}{
		{"no simple majority (tie)", levels(procs, func(m int) bool { return 2*m <= procs && 2*(procs-m) <= procs })},
		{"no two-thirds majority", levels(procs, func(m int) bool { return 3*m < 2*procs && 3*(procs-m) < 2*procs })},
		{"exclusive-or (odd yes count)", "xor(" + gpd.VarYes + ")"},
		{"not all votes equal", levels(procs, func(m int) bool { return m != 0 && m != procs })},
		{"unanimous yes", fmt.Sprintf("count(%s) == %d", gpd.VarYes, procs)},
	}
	for _, q := range questions {
		spec, err := gpd.ParseSpec(q.pred)
		if err != nil {
			return err
		}
		rep, err := gpd.Detect(c, spec)
		if err != nil {
			return err
		}
		fmt.Printf("%-30s possibly=%v", q.name, rep.Holds)
		if rep.Holds {
			fmt.Printf("  (witness cut %v, yes count %d)", rep.Witness, c.CountTrue(rep.Witness, yes))
		}
		fmt.Println()
	}

	// The yes count is a unit-step sum, so its whole reachable range is
	// exact and cheap:
	min, max := gpd.SumRange(c, gpd.VarYes)
	fmt.Printf("yes-count range over all consistent cuts: [%d, %d] of %d\n", min, max, procs)
	return nil
}

// levels renders the symmetric predicate on the yes variable that holds
// at exactly the yes counts m in [0, n] where holds(m) is true.
func levels(n int, holds func(m int) bool) string {
	var ms []string
	for m := 0; m <= n; m++ {
		if holds(m) {
			ms = append(ms, strconv.Itoa(m))
		}
	}
	return fmt.Sprintf("levels(%s): %s", gpd.VarYes, strings.Join(ms, ", "))
}
