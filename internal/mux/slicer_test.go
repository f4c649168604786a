package mux

import (
	"errors"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

func conjReg(id, v string) Registration {
	return Registration{ID: id, Spec: pred.Spec{Family: pred.Conjunctive, Var: v}, Slice: true}
}

// TestSlicerSharedAcrossPredicates pins the refcounting economics: two
// predicates on one variable pay for one frontier, and the slicer
// survives until the last sharer detaches.
func TestSlicerSharedAcrossPredicates(t *testing.T) {
	g := NewGroup(2)
	if err := g.Register(conjReg("a", "x")); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(conjReg("b", "x")); err != nil {
		t.Fatal(err)
	}
	if got := len(g.slicers); got != 1 {
		t.Fatalf("two same-variable registrations built %d slicers, want 1", got)
	}
	if g.slicers["x"].refs != 2 {
		t.Fatalf("shared slicer refs = %d, want 2", g.slicers["x"].refs)
	}

	evs := []detect.Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "x", Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Var: "x", Truth: true},
	}
	for _, ev := range evs {
		if err := g.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	g.Flush()
	if err := g.Err(); err != nil {
		t.Fatalf("slice error: %v", err)
	}
	if !g.Slicer("x").Possibly() {
		t.Fatal("shared slicer missed the satisfying cut")
	}
	if g.SliceRetained() == 0 {
		t.Fatal("slicer retains nothing while the stream is open")
	}

	if err := g.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if g.Slicer("x") == nil {
		t.Fatal("slicer freed while a sharer remains")
	}
	if err := g.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if g.Slicer("x") != nil {
		t.Fatal("slicer not freed after the last sharer detached")
	}
}

// TestSlicerRelevanceFilter pins the truth routing: only events tagged
// with the slicer's variable move the predicate's truth; other events
// carry the last value forward even when their own Truth flag is set.
func TestSlicerRelevanceFilter(t *testing.T) {
	g := NewGroup(2)
	if err := g.Register(conjReg("a", "x")); err != nil {
		t.Fatal(err)
	}
	// Process 0 speaks only about variable y (Truth set, but irrelevant);
	// process 1 has a true x-event. Without the filter the y-event's Truth
	// would leak into the slice and fabricate a satisfying cut.
	evs := []detect.Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "y", Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Var: "x", Truth: true},
	}
	for _, ev := range evs {
		if err := g.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	g.Flush()
	if g.Slicer("x").Possibly() {
		t.Fatal("irrelevant event's Truth leaked into the slice")
	}
	// A real x-event on process 0 completes the conjunction.
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{2, 0}, Var: "x", Truth: true}); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	if !g.Slicer("x").Possibly() {
		t.Fatal("satisfying cut missed after the relevant event arrived")
	}
}

// TestSlicerAttachAfterEventsFails: the slicer needs each process's full
// local order from the start; a sliced registration arriving mid-stream
// must be rejected, not silently misaligned.
func TestSlicerAttachAfterEventsFails(t *testing.T) {
	g := NewGroup(2)
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{1, 0}, Var: "x", Truth: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(conjReg("late", "x")); err == nil {
		t.Fatal("mid-stream sliced registration accepted")
	}
	// The same registration without Slice is fine.
	r := conjReg("plain", "x")
	r.Slice = false
	if err := g.Register(r); err != nil {
		t.Fatalf("unsliced mid-stream registration rejected: %v", err)
	}
}

// TestSlicerRejectsNonRegular: non-regular families cannot be sliced and
// the error says so via the sentinel.
func TestSlicerRejectsNonRegular(t *testing.T) {
	g := NewGroup(2)
	err := g.Register(Registration{
		ID:    "s",
		Spec:  pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 1},
		Slice: true,
	})
	if err == nil {
		t.Fatal("sliced sum registration accepted")
	}
	if !errors.Is(err, slicing.ErrNotRegular) {
		t.Fatalf("error %v does not unwrap to ErrNotRegular", err)
	}
}

// TestSlicerInvolvedMismatch: sharers must agree on the involved set —
// widening it silently would change which cuts the shared slice admits.
func TestSlicerInvolvedMismatch(t *testing.T) {
	g := NewGroup(2)
	r := conjReg("a", "x")
	r.Involved = []int{0}
	if err := g.Register(r); err != nil {
		t.Fatal(err)
	}
	r2 := conjReg("b", "x")
	r2.Involved = []int{1}
	if err := g.Register(r2); err == nil {
		t.Fatal("conflicting involved sets accepted on one shared slicer")
	}
}

// TestSlicerHonoursInit: a sliced registration's initial values seed
// both the slice's initial cut and the truth carried forward over other
// variables' events, and sharers must agree on them.
func TestSlicerHonoursInit(t *testing.T) {
	g := NewGroup(2)
	r := conjReg("a", "x")
	r.Init = []int64{1, 0}
	if err := g.Register(r); err != nil {
		t.Fatal(err)
	}
	r2 := conjReg("b", "x")
	if err := g.Register(r2); err == nil || !strings.Contains(err.Error(), "initial state") {
		t.Fatalf("conflicting initial states on one shared slicer: error %v", err)
	}
	// Process 0 speaks only about y: x stays true there from the start.
	evs := []detect.Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "y", Truth: false},
		{Proc: 1, VC: []int64{1, 1}, Var: "x", Truth: true},
	}
	for _, ev := range evs {
		if err := g.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	g.Flush()
	if !g.Slicer("x").Possibly() || !g.Possibly("a") {
		t.Fatalf("slicer %v, detector %v: both must see x true on process 0 after its y-event",
			g.Slicer("x").Possibly(), g.Possibly("a"))
	}

	g = NewGroup(2)
	r.Init = []int64{1, 1}
	if err := g.Register(r); err != nil {
		t.Fatal(err)
	}
	if !g.Slicer("x").Possibly() || !g.Possibly("a") {
		t.Fatal("the initial cut satisfies all(x): slicer and detector must both latch at registration")
	}
}

// TestSlicerSealCompactsEverything: sealing releases the whole frontier,
// and the compaction ledger accounts every delivered event exactly once.
func TestSlicerSealCompactsEverything(t *testing.T) {
	g := NewGroup(2)
	if err := g.Register(conjReg("a", "x")); err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for i := int64(1); i <= 6; i++ {
		evs := []detect.Event{
			{Proc: 0, VC: []int64{i, 0}, Var: "x", Truth: i%2 == 0},
			{Proc: 1, VC: []int64{0, i}, Var: "x", Truth: i%2 == 1},
		}
		for _, ev := range evs {
			if err := g.Step(ev); err != nil {
				t.Fatal(err)
			}
			n++
		}
		g.Flush()
	}
	g.SealSlicers()
	if got := g.SliceRetained(); got != 0 {
		t.Fatalf("retained %d events after seal, want 0", got)
	}
	if got := g.SliceCompacted(); got != n {
		t.Fatalf("compaction ledger %d, want every delivered event (%d)", got, n)
	}
}
