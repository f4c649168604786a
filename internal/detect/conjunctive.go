package detect

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

func init() {
	caps := Caps{Incremental: true, Sliceable: true}
	Register(Entry{
		Family: pred.Conjunctive, Modality: ModalityPossibly, Caps: caps,
		Batch: conjPossibly, New: newConjDetector, Slice: conjSlicePossibly,
	})
	Register(Entry{
		Family: pred.Conjunctive, Modality: ModalityDefinitely, Caps: caps,
		Batch: conjDefinitely, New: newConjDetector, Slice: conjSliceDefinitely,
	})
}

// varTruth is the batch truth convention: the named variable, initial
// states included.
func varTruth(c *computation.Computation, name string) conjunctive.LocalPredicate {
	return func(e computation.Event) bool { return c.Var(name, e.ID) != 0 }
}

func allLocals(c *computation.Computation, name string) map[computation.ProcID]conjunctive.LocalPredicate {
	locals := make(map[computation.ProcID]conjunctive.LocalPredicate, c.NumProcs())
	truth := varTruth(c, name)
	for p := 0; p < c.NumProcs(); p++ {
		locals[computation.ProcID(p)] = truth
	}
	return locals
}

// conjPossibly and conjDefinitely ignore Options.Parallelism: the
// token-elimination algorithms are linear in the number of events and
// already work-optimal, so a worker pool would only add coordination
// overhead without changing the asymptotics.
func conjPossibly(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	res := conjunctive.Detect(c, allLocals(c, s.Var), tr)
	return Result{Holds: res.Found, Witness: res.Cut}, nil
}

func conjDefinitely(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	return Result{Holds: conjunctive.DetectDefinitely(c, allLocals(c, s.Var), tr)}, nil
}

// conjDetector wraps the token-based online checker (conjunctive.Checker)
// behind the Detector interface: Step enqueues into the checker, and
// one Flush runs one elimination sweep however many events arrived.
type conjDetector struct {
	checker  *conjunctive.Checker
	possibly bool
}

// newConjDetector seeds the checker with the initial state of every
// involved process that starts true, so the initial cut (a session's
// open, or a mux registration cut) counts like any other.
func newConjDetector(_ pred.Spec, cfg Config) (Detector, error) {
	involved := cfg.Involved
	if len(involved) == 0 {
		involved = make([]int, cfg.Procs)
		for i := range involved {
			involved[i] = i
		}
	}
	ch := conjunctive.NewChecker(involved)
	for _, p := range involved {
		if p < len(cfg.Init) && cfg.Init[p] != 0 {
			ch.Seed(p, cfg.Procs)
		}
	}
	return &conjDetector{checker: ch, possibly: ch.Sweep()}, nil
}

func (d *conjDetector) Step(ev Event) error {
	d.checker.Step(ev.Proc, vclock.VC(ev.VC), ev.Truth)
	return nil
}

func (d *conjDetector) Flush() bool {
	d.possibly = d.checker.Sweep()
	return d.possibly
}

func (d *conjDetector) Possibly() bool { return d.possibly }

func (d *conjDetector) Window() int { return d.checker.Pending() }

func (d *conjDetector) Snapshot() Snapshot {
	return Snapshot{Possibly: d.possibly, Window: d.Window()}
}
