package gpd_test

// Runnable godoc examples for the main public entry points.

import (
	"fmt"

	gpd "github.com/distributed-predicates/gpd"
)

// twoFlags builds the running two-process example: p0 raises a flag and
// lowers it before telling p1, which then raises its own.
func twoFlags() (*gpd.Computation, gpd.ProcID, gpd.ProcID) {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)  // flag0 up
	a2 := c.AddInternal(p0) // flag0 down again
	b := c.AddInternal(p1)  // flag1 up, after the message
	if err := c.AddMessage(a2, b); err != nil {
		panic(err)
	}
	c.SetVar("flag", a, 1)
	c.SetVar("flag", b, 1)
	if err := c.Seal(); err != nil {
		panic(err)
	}
	return c, p0, p1
}

// decide parses a predicate and decides it with the front door.
func decide(c *gpd.Computation, text string, opts ...gpd.Option) gpd.Report {
	spec, err := gpd.ParseSpec(text)
	if err != nil {
		panic(err)
	}
	rep, err := gpd.Detect(c, spec, opts...)
	if err != nil {
		panic(err)
	}
	return rep
}

func ExampleDetect() {
	c, _, _ := twoFlags()
	// Could both flags ever be up at once?
	fmt.Println(decide(c, "all(flag)").Holds)
	// Output: false
}

func ExampleSumRange() {
	c, _, _ := twoFlags()
	min, max := gpd.SumRange(c, "flag")
	fmt.Println(min, max)
	// Output: 0 1
}

func ExampleDetect_sum() {
	c, _, _ := twoFlags()
	rep := decide(c, "sum(flag) == 1")
	fmt.Println(rep.Holds, rep.Witness)
	// Output: true <1,0>
}

func ExampleDetect_cnf() {
	c, p0, p1 := twoFlags()
	// flag0 OR flag1, one literal per process.
	rep := decide(c, fmt.Sprintf("cnf(flag): (%d | %d)", p0, p1))
	fmt.Println(rep.Holds, rep.Strategy)
	// Output: true receive-ordered
}

func ExampleDetect_xor() {
	c, _, _ := twoFlags()
	fmt.Println(decide(c, "xor(flag)").Holds)
	// Output: true
}

func ExampleDetect_definitely() {
	c, _, _ := twoFlags()
	// Every run raises exactly one flag at a time at some point.
	fmt.Println(decide(c, "sum(flag) == 1", gpd.WithModality(gpd.ModalityDefinitely)).Holds)
	// Output: true
}

func ExampleInFlightRange() {
	c, _, _ := twoFlags()
	min, max := gpd.InFlightRange(c)
	fmt.Println(min, max)
	// Output: 0 1
}

func ExampleDetect_slice() {
	c, _, _ := twoFlags()
	// The slice of all(flag) is empty: no cut has both flags up.
	fmt.Println(decide(c, "all(flag)", gpd.WithStrategy(gpd.StrategySlice)).Holds)
	// Output: false
}

func ExampleDetect_replay() {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.SetVar("flag", c.AddInternal(p0), 1)
	c.SetVar("flag", c.AddInternal(p1), 1)
	if err := c.Seal(); err != nil {
		panic(err)
	}
	// The incremental detector gpdserver runs online, replayed over a
	// causal linearization: both flags go up concurrently.
	fmt.Println(decide(c, "all(flag)", gpd.WithStrategy(gpd.StrategyReplay)).Holds)
	// Output: true
}

func ExampleNewSimulator() {
	sim := gpd.NewSimulator(42, gpd.NewTokenRingProcs(4, 2, 1, 3))
	c, err := sim.Run()
	if err != nil {
		panic(err)
	}
	// Token conservation at the final cut.
	fmt.Println(c.SumVar(gpd.VarTokens, c.FinalCut()))
	// Output: 2
}

func ExampleCountCuts() {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.AddInternal(p0)
	c.AddInternal(p1)
	if err := c.Seal(); err != nil {
		panic(err)
	}
	// Two independent events: a 2x2 grid of consistent cuts.
	fmt.Println(gpd.CountCuts(c))
	// Output: 4
}
