package singular

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Strategy selects the detection algorithm.
type Strategy int

const (
	// Auto picks the cheapest applicable algorithm: the receive-ordered
	// detector, then the send-ordered one, then chain covers.
	Auto Strategy = iota + 1
	// ReceiveOrdered runs the polynomial special-case algorithm; it
	// fails with ErrNotOrdered if receives are not totally ordered on
	// some meta-process.
	ReceiveOrdered
	// SendOrdered runs the polynomial special-case algorithm on the
	// time-reversed computation; it fails with ErrNotOrdered if sends
	// are not totally ordered on some meta-process.
	SendOrdered
	// ProcessSubsets is general algorithm A: one CPDHB run per
	// selection of one process per clause (up to k^g selections).
	ProcessSubsets
	// ChainCover is general algorithm B: one CPDHB run per selection of
	// one chain per clause from minimum chain covers of the true events
	// (up to c^g selections, c = max cover size).
	ChainCover
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case ReceiveOrdered:
		return "receive-ordered"
	case SendOrdered:
		return "send-ordered"
	case ProcessSubsets:
		return "process-subsets"
	case ChainCover:
		return "chain-cover"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Result is the outcome of a detection.
type Result struct {
	// Found reports whether Possibly(predicate) holds.
	Found bool
	// Witness, when Found, has one true event per clause; the events
	// are pairwise consistent (Observation 1).
	Witness []computation.EventID
	// Cut, when Found, is the least consistent cut passing through all
	// witness events; the predicate holds at it.
	Cut computation.Cut
	// Strategy is the algorithm that produced the answer.
	Strategy Strategy
	// Combinations counts the candidate-queue combinations tried (1 for
	// the ordered algorithms, up to k^g or c^g for the general ones).
	Combinations int
	// Eliminations counts candidate eliminations across all runs.
	Eliminations int
	// Candidates counts the true events enumerated across all clauses
	// (the total queue length the elimination starts from).
	Candidates int
}

// Detect decides Possibly(p) on the sealed computation using the given
// strategy. truth supplies the per-process boolean variables.
//
// The per-selection CPDHB runs and the chain-cover comparability scans
// spread over a pool of workers. Selections are merged in odometer
// order, so the result (witness, combination and elimination counts
// included) is identical for every worker count; workers <= 1 runs the
// exact sequential code. Work counters accumulate into tr (nil is
// free): candidate (true) events enumerated, CPDHB sub-runs (queue
// combinations) tried, candidates eliminated, plus a note naming the
// strategy that produced the answer (which, under Auto, the caller
// cannot otherwise predict).
func Detect(c *computation.Computation, p *Predicate, truth Truth, strategy Strategy, workers int, tr *obs.Trace) (Result, error) {
	res, err := detect(c, p, truth, strategy, workers)
	if err == nil && tr != nil {
		tr.Note("singular.strategy", res.Strategy.String())
		tr.Add("singular.candidate_events", int64(res.Candidates))
		tr.Add("singular.cpdhb_runs", int64(res.Combinations))
		tr.Add("singular.eliminations", int64(res.Eliminations))
	}
	return res, err
}

func detect(c *computation.Computation, p *Predicate, truth Truth, strategy Strategy, workers int) (Result, error) {
	if err := p.Validate(c); err != nil {
		return Result{}, err
	}
	if len(p.Clauses) == 0 {
		return Result{Found: true, Cut: c.InitialCut(), Strategy: strategy, Combinations: 1}, nil
	}
	cands := p.trueEvents(c, truth)
	total := 0
	for _, t := range cands {
		total += len(t)
	}
	for _, t := range cands {
		if len(t) == 0 {
			return Result{Strategy: strategy, Candidates: total}, nil
		}
	}
	res, err := func() (Result, error) {
		switch strategy {
		case ReceiveOrdered:
			return detectOrdered(c, p, cands, false)
		case SendOrdered:
			return detectOrdered(c, p, cands, true)
		case ProcessSubsets:
			return detectSubsets(c, p, cands, workers)
		case ChainCover:
			return detectChains(c, cands, workers)
		case Auto:
			if res, err := detectOrdered(c, p, cands, false); err == nil {
				return res, nil
			}
			if res, err := detectOrdered(c, p, cands, true); err == nil {
				return res, nil
			}
			return detectChains(c, cands, workers)
		default:
			return Result{}, fmt.Errorf("singular: unknown strategy %d", int(strategy))
		}
	}()
	if err == nil {
		res.Candidates = total
	}
	return res, err
}

// eliminateQueues runs the CPDHB elimination over candidate queues, one per
// clause. Each queue must be ordered so that elimination is sound: whenever
// succ(e) happened-before the head of another queue, succ(e) also
// happened-before every later entry of that queue (guaranteed by chain
// order, per-process order, or Property P of the ordered algorithms).
//
// clock must return the vector timestamp of an event in the computation
// whose consistency is being decided, and proc the component index of the
// event's process.
func eliminateQueues(
	queues [][]computation.EventID,
	clock func(computation.EventID) []int32,
	proc func(computation.EventID) int,
) (found bool, witness []computation.EventID, eliminations int) {
	cur := make([]int, len(queues))
	dirty := make([]int, len(queues))
	inDirty := make([]bool, len(queues))
	for i := range queues {
		dirty[i] = i
		inDirty[i] = true
	}
	bump := func(i int) bool {
		cur[i]++
		eliminations++
		if cur[i] >= len(queues[i]) {
			return false
		}
		if !inDirty[i] {
			dirty = append(dirty, i)
			inDirty[i] = true
		}
		return true
	}
	for len(dirty) > 0 {
		i := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		inDirty[i] = false
		ei := queues[i][cur[i]]
		ci, pi := clock(ei), proc(ei)
		for j := range queues {
			if j == i {
				continue
			}
			ej := queues[j][cur[j]]
			cj, pj := clock(ej), proc(ej)
			// succ(e_i) <= e_j: e_j has seen past e_i on e_i's process.
			if cj[pi] > ci[pi] {
				if !bump(i) {
					return false, nil, eliminations
				}
				ei = queues[i][cur[i]]
				ci, pi = clock(ei), proc(ei)
				continue
			}
			// succ(e_j) <= e_i.
			if ci[pj] > cj[pj] {
				if !bump(j) {
					return false, nil, eliminations
				}
			}
		}
	}
	witness = make([]computation.EventID, len(queues))
	for i := range queues {
		witness[i] = queues[i][cur[i]]
	}
	return true, witness, eliminations
}

// finish fills in the witness cut.
func finish(c *computation.Computation, res Result) Result {
	if res.Found {
		res.Cut = c.CutThrough(res.Witness...)
	}
	return res
}
