// Onlinemonitor: passive online detection of a weak conjunctive predicate
// in a live system of goroutine "processes" streaming to a detection
// server — the Garg–Waldecker monitoring architecture end to end, served
// by the same engine and wire protocol as gpdserver.
//
// Each worker keeps a vector clock, piggybacks timestamps on the messages
// it already exchanges, and appends every event — stamped with its clock
// and its "overloaded" flag — to one all(overloaded) session over its own
// TCP connection. The server re-establishes causal order and reports
// whether some consistent global state had every worker simultaneously
// overloaded, even though no wall-clock observer could have seen it.
//
//	go run ./examples/onlinemonitor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"github.com/distributed-predicates/gpd/internal/stream"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

const (
	nWorkers = 4
	session  = "overload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eng := stream.NewEngine(stream.Config{Shards: 1})
	defer eng.Shutdown()
	srv, err := stream.ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("checker listening on %s\n", srv.Addr())

	cl, err := stream.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Open(session, stream.Spec{Pred: "all(overloaded)", Procs: nWorkers}); err != nil {
		return err
	}

	// Workers exchange "work items" over channels, carrying vector
	// timestamps, and occasionally become overloaded (their conjunct).
	chans := make([]chan vclock.VC, nWorkers)
	for i := range chans {
		chans[i] = make(chan vclock.VC, 64)
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			if err := worker(me, srv.Addr(), chans); err != nil {
				log.Printf("worker %d: %v", me, err)
			}
		}(w)
	}
	wg.Wait()

	verdict, _, err := cl.ClosePredicates(session)
	if err != nil {
		return err
	}
	if verdict.Possibly {
		fmt.Println("DETECTED: a consistent global state with every worker overloaded")
	} else {
		fmt.Println("no simultaneous overload was possible in this run")
	}
	return nil
}

func worker(me int, addr string, chans []chan vclock.VC) error {
	cl, err := stream.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	clock := vclock.NewClock(me, nWorkers)
	rng := rand.New(rand.NewSource(int64(me) + 7))
	overloaded := false
	// report appends one event; the reply carries the session's latched
	// verdict, so a worker can stop once the checker has its answer.
	report := func(vc vclock.VC) (bool, error) {
		return cl.Append(session, []stream.Event{{Proc: me, VC: vc, Truth: overloaded}})
	}
	for step := 0; step < 30; step++ {
		var detected bool
		switch rng.Intn(4) {
		case 0: // local work; load flips occasionally
			overloaded = rng.Intn(2) == 0
			detected, err = report(clock.Event())
		case 1: // hand work to a random peer
			to := rng.Intn(nWorkers)
			if to == me {
				to = (to + 1) % nWorkers
			}
			stamp := clock.Send()
			detected, err = report(stamp)
			select {
			case chans[to] <- stamp:
			default: // peer busy; drop the handoff
			}
		default: // try to pick up work
			select {
			case stamp := <-chans[me]:
				overloaded = true // new work: definitely busy
				detected, err = report(clock.Receive(stamp))
			default:
				detected, err = report(clock.Event())
			}
		}
		if err != nil || detected {
			return err
		}
	}
	return nil
}
