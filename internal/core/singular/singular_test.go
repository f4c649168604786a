package singular

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

// randomComputation builds a random acyclic computation.
func randomComputation(rng *rand.Rand, np, me, msgs int) *computation.Computation {
	c := computation.New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		n := 1 + rng.Intn(me)
		for i := 0; i < n; i++ {
			c.AddInternal(computation.ProcID(p))
		}
	}
	for tries := 0; tries < msgs; tries++ {
		p := computation.ProcID(rng.Intn(np))
		q := computation.ProcID(rng.Intn(np))
		if p == q {
			continue
		}
		i := 1 + rng.Intn(c.Len(p)-1)
		j := 1 + rng.Intn(c.Len(q)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(p, i).ID, c.EventAt(q, j).ID)
		}
	}
	return c.MustSeal()
}

// randomPredicate partitions the first g*k processes into g clauses of k
// literals with random polarities.
func randomPredicate(rng *rand.Rand, g, k int) *Predicate {
	p := &Predicate{}
	proc := 0
	for i := 0; i < g; i++ {
		var cl Clause
		for j := 0; j < k; j++ {
			cl = append(cl, Literal{Proc: computation.ProcID(proc), Negated: rng.Intn(2) == 0})
			proc++
		}
		p.Clauses = append(p.Clauses, cl)
	}
	return p
}

func randomTruth(rng *rand.Rand, c *computation.Computation, density float64) Truth {
	tabs := make([][]bool, c.NumProcs())
	for p := range tabs {
		tabs[p] = make([]bool, c.Len(computation.ProcID(p)))
		for i := range tabs[p] {
			tabs[p][i] = rng.Float64() < density
		}
	}
	return TruthFromTables(tabs)
}

func oracle(c *computation.Computation, p *Predicate, truth Truth) bool {
	ok, _ := lattice.Possibly(c, func(cc *computation.Computation, k computation.Cut) bool {
		return p.Holds(cc, truth, k)
	})
	return ok
}

func verifyWitness(t *testing.T, c *computation.Computation, p *Predicate, truth Truth, res Result) {
	t.Helper()
	if len(res.Witness) != len(p.Clauses) {
		t.Fatalf("witness has %d events for %d clauses", len(res.Witness), len(p.Clauses))
	}
	if !c.PairwiseConsistent(res.Witness) {
		t.Fatalf("witness %v not pairwise consistent", res.Witness)
	}
	if !c.CutConsistent(res.Cut) {
		t.Fatalf("cut %v not consistent", res.Cut)
	}
	if !p.Holds(c, truth, res.Cut) {
		t.Fatalf("predicate does not hold at witness cut %v", res.Cut)
	}
}

func TestValidate(t *testing.T) {
	c := computation.New()
	c.AddProcesses(4)
	c.MustSeal()
	good := &Predicate{Clauses: []Clause{
		{{Proc: 0}, {Proc: 1}},
		{{Proc: 2}, {Proc: 3, Negated: true}},
	}}
	if err := good.Validate(c); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	dupAcross := &Predicate{Clauses: []Clause{{{Proc: 0}}, {{Proc: 0}}}}
	if err := dupAcross.Validate(c); !errors.Is(err, ErrNotSingular) {
		t.Errorf("duplicate across clauses: err = %v", err)
	}
	dupWithin := &Predicate{Clauses: []Clause{{{Proc: 1}, {Proc: 1, Negated: true}}}}
	if err := dupWithin.Validate(c); !errors.Is(err, ErrNotSingular) {
		t.Errorf("duplicate within clause: err = %v", err)
	}
	empty := &Predicate{Clauses: []Clause{{}}}
	if err := empty.Validate(c); !errors.Is(err, ErrNotSingular) {
		t.Errorf("empty clause: err = %v", err)
	}
	unknown := &Predicate{Clauses: []Clause{{{Proc: 9}}}}
	if err := unknown.Validate(c); err == nil {
		t.Error("unknown process must fail validation")
	}
}

func TestEmptyPredicate(t *testing.T) {
	c := computation.New()
	c.AddProcess()
	c.MustSeal()
	res, err := Detect(c, &Predicate{}, func(computation.Event) bool { return false }, Auto, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("empty predicate must hold")
	}
}

func TestGeneralAlgorithmsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 200; trial++ {
		g := 1 + rng.Intn(2)
		k := 1 + rng.Intn(2)
		np := g*k + rng.Intn(2)
		c := randomComputation(rng, np, 4, np*3)
		p := randomPredicate(rng, g, k)
		truth := randomTruth(rng, c, 0.4)
		want := oracle(c, p, truth)
		for _, strat := range []Strategy{ProcessSubsets, ChainCover} {
			res, err := Detect(c, p, truth, strat, 1, nil)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, strat, err)
			}
			if res.Found != want {
				t.Fatalf("trial %d: %v = %v, oracle = %v", trial, strat, res.Found, want)
			}
			if res.Found {
				verifyWitness(t, c, p, truth, res)
			}
		}
	}
}

// receiveOrderedComputation funnels all messages into process 0, so every
// receive of every meta-process lies on one process and receives are
// trivially totally ordered per meta-process only if each group contains at
// most one receiving process. We instead funnel per-group: all receives go
// to the group's first process.
func receiveOrderedComputation(rng *rand.Rand, g, k, me int) (*computation.Computation, *Predicate) {
	np := g * k
	c := computation.New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		n := 2 + rng.Intn(me)
		for i := 0; i < n; i++ {
			c.AddInternal(computation.ProcID(p))
		}
	}
	p := &Predicate{}
	proc := 0
	for i := 0; i < g; i++ {
		var cl Clause
		for j := 0; j < k; j++ {
			cl = append(cl, Literal{Proc: computation.ProcID(proc), Negated: rng.Intn(2) == 0})
			proc++
		}
		p.Clauses = append(p.Clauses, cl)
	}
	// Messages: any process may send, but within each group only the
	// first process receives (its receives are then locally ordered).
	for tries := 0; tries < np*4; tries++ {
		from := computation.ProcID(rng.Intn(np))
		group := rng.Intn(g)
		to := computation.ProcID(group * k)
		if from == to {
			continue
		}
		i := 1 + rng.Intn(c.Len(from)-1)
		j := 1 + rng.Intn(c.Len(to)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(from, i).ID, c.EventAt(to, j).ID)
		}
	}
	return c.MustSeal(), p
}

func TestReceiveOrderedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	applicable := 0
	for trial := 0; trial < 200; trial++ {
		c, p := receiveOrderedComputation(rng, 1+rng.Intn(2), 1+rng.Intn(2), 3)
		truth := randomTruth(rng, c, 0.4)
		res, err := Detect(c, p, truth, ReceiveOrdered, 1, nil)
		if errors.Is(err, ErrNotOrdered) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		applicable++
		if want := oracle(c, p, truth); res.Found != want {
			t.Fatalf("trial %d: receive-ordered = %v, oracle = %v\npred=%v", trial, res.Found, want, p)
		}
		if res.Found {
			verifyWitness(t, c, p, truth, res)
		}
	}
	if applicable < 100 {
		t.Fatalf("only %d/200 trials were receive-ordered; generator broken", applicable)
	}
}

// sendOrderedComputation: within each group only the first process sends.
func sendOrderedComputation(rng *rand.Rand, g, k, me int) (*computation.Computation, *Predicate) {
	np := g * k
	c := computation.New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		n := 2 + rng.Intn(me)
		for i := 0; i < n; i++ {
			c.AddInternal(computation.ProcID(p))
		}
	}
	p := &Predicate{}
	proc := 0
	for i := 0; i < g; i++ {
		var cl Clause
		for j := 0; j < k; j++ {
			cl = append(cl, Literal{Proc: computation.ProcID(proc), Negated: rng.Intn(2) == 0})
			proc++
		}
		p.Clauses = append(p.Clauses, cl)
	}
	for tries := 0; tries < np*4; tries++ {
		group := rng.Intn(g)
		from := computation.ProcID(group * k)
		to := computation.ProcID(rng.Intn(np))
		if from == to {
			continue
		}
		i := 1 + rng.Intn(c.Len(from)-1)
		j := 1 + rng.Intn(c.Len(to)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(from, i).ID, c.EventAt(to, j).ID)
		}
	}
	return c.MustSeal(), p
}

func TestSendOrderedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	applicable := 0
	for trial := 0; trial < 200; trial++ {
		c, p := sendOrderedComputation(rng, 1+rng.Intn(2), 1+rng.Intn(2), 3)
		truth := randomTruth(rng, c, 0.4)
		res, err := Detect(c, p, truth, SendOrdered, 1, nil)
		if errors.Is(err, ErrNotOrdered) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		applicable++
		if want := oracle(c, p, truth); res.Found != want {
			t.Fatalf("trial %d: send-ordered = %v, oracle = %v\npred=%v", trial, res.Found, want, p)
		}
		if res.Found {
			verifyWitness(t, c, p, truth, res)
		}
	}
	if applicable < 100 {
		t.Fatalf("only %d/200 trials were send-ordered; generator broken", applicable)
	}
}

func TestAutoFallsBackToChains(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	sawChains := false
	for trial := 0; trial < 100; trial++ {
		c := randomComputation(rng, 4, 4, 12)
		p := randomPredicate(rng, 2, 2)
		truth := randomTruth(rng, c, 0.4)
		res, err := Detect(c, p, truth, Auto, 1, nil)
		if err != nil {
			t.Fatalf("trial %d: Auto must not fail: %v", trial, err)
		}
		if res.Strategy == ChainCover {
			sawChains = true
		}
		if want := oracle(c, p, truth); res.Found != want {
			t.Fatalf("trial %d: Auto = %v, oracle = %v (strategy %v)", trial, res.Found, want, res.Strategy)
		}
	}
	if !sawChains {
		t.Error("expected at least one trial to fall back to the chain-cover algorithm")
	}
}

func TestNotOrderedDetected(t *testing.T) {
	// Two processes in one clause, each receiving a message concurrently:
	// receives are concurrent, so the receive-ordered algorithm must
	// refuse.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	p2 := c.AddProcess()
	p3 := c.AddProcess()
	s0 := c.AddInternal(p2)
	s1 := c.AddInternal(p3)
	r0 := c.AddInternal(p0)
	r1 := c.AddInternal(p1)
	if err := c.AddMessage(s0, r0); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMessage(s1, r1); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	p := &Predicate{Clauses: []Clause{{{Proc: p0}, {Proc: p1}}}}
	truth := func(computation.Event) bool { return true }
	if _, err := Detect(c, p, truth, ReceiveOrdered, 1, nil); !errors.Is(err, ErrNotOrdered) {
		t.Errorf("ReceiveOrdered err = %v, want ErrNotOrdered", err)
	}
	// Symmetrically the senders p2, p3 in one clause break send-order.
	ps := &Predicate{Clauses: []Clause{{{Proc: p2}, {Proc: p3}}}}
	if _, err := Detect(c, ps, truth, SendOrdered, 1, nil); !errors.Is(err, ErrNotOrdered) {
		t.Errorf("SendOrdered err = %v, want ErrNotOrdered", err)
	}
}

func TestChainCoverNeverMoreCombinationsThanSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 60; trial++ {
		c := randomComputation(rng, 4, 5, 16)
		p := randomPredicate(rng, 2, 2)
		truth := randomTruth(rng, c, 0.5)
		ra, err := Detect(c, p, truth, ProcessSubsets, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Detect(c, p, truth, ChainCover, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Found != rb.Found {
			t.Fatalf("trial %d: A found %v, B found %v", trial, ra.Found, rb.Found)
		}
		// When neither finds, B explores its full (smaller) product.
		if !ra.Found && rb.Combinations > ra.Combinations {
			t.Fatalf("trial %d: B tried %d > A's %d combinations",
				trial, rb.Combinations, ra.Combinations)
		}
	}
}

func TestChainCoverSizes(t *testing.T) {
	// A clause over two processes whose true events are all ordered by a
	// message chain needs a single chain.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a, b); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	p := &Predicate{Clauses: []Clause{{{Proc: p0}, {Proc: p1}}}}
	truth := func(e computation.Event) bool { return e.ID == a || e.ID == b }
	sizes, err := ChainCoverSizes(c, p, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("ChainCoverSizes = %v, want [1]", sizes)
	}
}

func TestTruthHelpers(t *testing.T) {
	c := computation.New()
	p := c.AddProcess()
	a := c.AddInternal(p)
	c.SetVar("flag", a, 1)
	c.MustSeal()
	fromVar := TruthFromVar(c, "flag")
	if !fromVar(c.Event(a)) || fromVar(c.Initial(p)) {
		t.Error("TruthFromVar wrong")
	}
	fromTab := TruthFromTables([][]bool{{false, true}})
	if !fromTab(c.Event(a)) || fromTab(c.Initial(p)) {
		t.Error("TruthFromTables wrong")
	}
	// Out of range reads are false.
	if fromTab(computation.Event{Proc: 5, Index: 0}) {
		t.Error("missing row must read false")
	}
}

func TestPredicateString(t *testing.T) {
	p := &Predicate{Clauses: []Clause{
		{{Proc: 0}, {Proc: 1, Negated: true}},
		{{Proc: 2}},
	}}
	want := "(x(p0) | !x(p1)) & (x(p2))"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if p.K() != 2 {
		t.Errorf("K = %d, want 2", p.K())
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Auto: "auto", ReceiveOrdered: "receive-ordered", SendOrdered: "send-ordered",
		ProcessSubsets: "process-subsets", ChainCover: "chain-cover",
		Strategy(42): "strategy(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	c := computation.New()
	c.AddProcess()
	c.AddInternal(0)
	c.MustSeal()
	p := &Predicate{Clauses: []Clause{{{Proc: 0}}}}
	if _, err := Detect(c, p, func(computation.Event) bool { return true }, Strategy(99), 1, nil); err == nil {
		t.Error("unknown strategy must error")
	}
}
