package gpd_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// fuzzComputation decodes fuzz bytes into a sealed computation of at
// most 4 processes with at most 5 events each: a unit-step variable
// "level" and a boolean "flag" on every state, then messages between
// non-initial events named by the remaining byte pairs. Returns nil
// when the messages close a causal cycle.
func fuzzComputation(data []byte) *gpd.Computation {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := gpd.New()
	procs := 1 + next()%4
	var events [][]gpd.EventID // per process, non-initial events
	for p := 0; p < procs; p++ {
		id := c.AddProcess()
		init := c.Initial(id).ID
		level := int64(next()%3 - 1)
		c.SetVar("level", init, level)
		c.SetVar("flag", init, int64(next()%2))
		var row []gpd.EventID
		for i := next() % 6; i > 0; i-- {
			e := c.AddInternal(id)
			level += int64(next()%3 - 1)
			c.SetVar("level", e, level)
			c.SetVar("flag", e, int64(next()%2))
			row = append(row, e)
		}
		events = append(events, row)
	}
	pick := func(b int) (int, gpd.EventID, bool) {
		p := b % procs
		if len(events[p]) == 0 {
			return p, 0, false
		}
		return p, events[p][(b/procs)%len(events[p])], true
	}
	for len(data) >= 2 {
		p, send, ok1 := pick(next())
		q, recv, ok2 := pick(next())
		if ok1 && ok2 && p != q {
			_ = c.AddMessage(send, recv)
		}
	}
	if err := c.Seal(); err != nil {
		return nil
	}
	return c
}

// fuzzInFlight counts the messages sent but not received at a cut.
func fuzzInFlight(c *gpd.Computation, k gpd.Cut) int64 {
	var n int64
	for _, m := range c.Messages() {
		if k.Contains(c.Event(m.Send)) && !k.Contains(c.Event(m.Receive)) {
			n++
		}
	}
	return n
}

// rangeCase is one range-family predicate with its direct evaluation at
// a cut, the exhaustive oracle's view of it.
type rangeCase struct {
	text  string
	holds gpd.GlobalPredicate
}

// rangeFamilyCases builds predicates of every range family over the
// fuzzed computation: each relop against one threshold for sum,
// inflight and count, plus xor and a level set, all thresholds taken
// from the fuzz input — and the conjunction all(flag), the one streamed
// truth family outside the range construction.
func rangeFamilyCases(c *gpd.Computation, kSum, kIn, kCount int64, levelMask int) []rangeCase {
	count := func(cc *gpd.Computation, k gpd.Cut) int64 {
		return int64(cc.CountTrue(k, func(e gpd.Event) bool { return cc.Var("flag", e.ID) != 0 }))
	}
	var cases []rangeCase
	for _, r := range []gpd.Relop{gpd.Lt, gpd.Le, gpd.Eq, gpd.Ge, gpd.Gt, gpd.Ne} {
		r := r
		cases = append(cases,
			rangeCase{fmt.Sprintf("sum(level) %v %d", r, kSum), func(cc *gpd.Computation, k gpd.Cut) bool {
				return r.Eval(cc.SumVar("level", k), kSum)
			}},
			rangeCase{fmt.Sprintf("inflight %v %d", r, kIn), func(cc *gpd.Computation, k gpd.Cut) bool {
				return r.Eval(fuzzInFlight(cc, k), kIn)
			}},
			rangeCase{fmt.Sprintf("count(flag) %v %d", r, kCount), func(cc *gpd.Computation, k gpd.Cut) bool {
				return r.Eval(count(cc, k), kCount)
			}})
	}
	cases = append(cases, rangeCase{"xor(flag)", func(cc *gpd.Computation, k gpd.Cut) bool { return count(cc, k)%2 == 1 }})
	var levels []string
	in := map[int64]bool{}
	for m := 0; m <= c.NumProcs(); m++ {
		if levelMask&(1<<m) != 0 || (m == c.NumProcs() && len(levels) == 0) {
			levels = append(levels, fmt.Sprint(m))
			in[int64(m)] = true
		}
	}
	cases = append(cases, rangeCase{"levels(flag): " + strings.Join(levels, ", "), func(cc *gpd.Computation, k gpd.Cut) bool {
		return in[count(cc, k)]
	}}, rangeCase{"all(flag)", func(cc *gpd.Computation, k gpd.Cut) bool {
		return count(cc, k) == int64(cc.NumProcs())
	}})
	return cases
}

// FuzzRangeRoutes is a cross-route differential check of the range
// families (sum, inflight, count, xor, levels) and all(flag) under
// both modalities; the flag starts true on some processes.
// On every decoded computation the batch verdict must equal the
// exhaustive lattice oracle's, a batch witness must satisfy the
// predicate at a consistent cut, and the replay route (the streamed
// detector over a causal linearization) must reach the same verdict
// and the same range as batch. Only channel-occupancy equality may
// fail, and only with ErrNotUnitStep on both routes (an event carrying
// several messages).
func FuzzRangeRoutes(f *testing.F) {
	f.Add([]byte{2, 3, 1, 4, 2, 1, 0, 1, 2, 0, 1, 1, 3, 1, 0, 2, 1, 1, 0, 1, 5, 9, 2, 4})
	f.Add([]byte{1, 2, 3, 255, 3, 1, 1, 2, 0, 2, 1, 2, 1, 4, 0, 1, 2, 1, 0, 1, 1, 2, 2, 0, 1, 7, 6, 8, 3, 4, 9})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{4, 4, 4, 21, 3, 0, 1, 5, 2, 1, 0, 1, 2, 1, 0, 1, 5, 1, 1, 2, 1, 0, 2, 1, 1, 5, 0, 0, 1, 2, 2, 1, 2, 0, 2, 5, 2, 1, 1, 1, 0, 0, 2, 1, 1, 2, 1, 3, 6, 7, 2, 9, 4, 11, 5, 8, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		kSum, kIn, kCount, mask := int64(data[0]%5)-2, int64(data[1]%4), int64(data[2]%5), int(data[3])
		c := fuzzComputation(data[4:])
		if c == nil {
			return // messages closed a causal cycle
		}
		for _, tc := range rangeFamilyCases(c, kSum, kIn, kCount, mask) {
			spec, err := gpd.ParseSpec(tc.text)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tc.text, err)
			}
			for _, m := range []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely} {
				batch, err := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithParallelism(1))
				replay, rerr := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithStrategy(gpd.StrategyReplay))
				if err != nil || rerr != nil {
					unitOnly := spec.Family == gpd.FamilyInFlight && spec.Rel == gpd.Eq
					if !unitOnly || !errors.Is(err, gpd.ErrNotUnitStep) || !errors.Is(rerr, gpd.ErrNotUnitStep) {
						t.Fatalf("%v(%s): batch error %v, replay error %v", m, tc.text, err, rerr)
					}
					continue
				}
				var oracle bool
				if m == gpd.ModalityPossibly {
					oracle, _ = gpd.PossiblyGeneric(c, tc.holds)
				} else {
					oracle = gpd.DefinitelyGeneric(c, tc.holds)
				}
				if batch.Holds != oracle {
					t.Fatalf("%v(%s): batch %v, lattice oracle %v", m, tc.text, batch.Holds, oracle)
				}
				if replay.Holds != batch.Holds {
					t.Fatalf("%v(%s): replay %v, batch %v", m, tc.text, replay.Holds, batch.Holds)
				}
				if w := batch.Witness; w != nil && (!c.CutConsistent(w) || !tc.holds(c, w)) {
					t.Fatalf("%v(%s): batch witness %v does not satisfy the predicate", m, tc.text, w)
				}
				cuts := spec.Family != gpd.FamilyInFlight || spec.Rel == gpd.Eq
				if m == gpd.ModalityPossibly && batch.Holds && cuts && batch.Witness == nil {
					t.Fatalf("%v(%s): batch holds without a witness", m, tc.text)
				}
				if batch.HasRange && (!replay.HasRange || replay.Min != batch.Min || replay.Max != batch.Max) {
					t.Fatalf("%v(%s): batch range [%d,%d], replay [%d,%d] (HasRange %v)",
						m, tc.text, batch.Min, batch.Max, replay.Min, replay.Max, replay.HasRange)
				}
			}
		}
	})
}
