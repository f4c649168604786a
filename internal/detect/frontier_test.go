package detect

import (
	"reflect"
	"testing"
)

// Two processes; online vector clocks count delivered events only (no
// initial events). Ids pack as index*procs + proc.
func TestFrontierRequires(t *testing.T) {
	f := newFrontier(2)
	// First event of process 0: no dependencies.
	if got := f.requires(Event{Proc: 0, VC: []int64{1, 0}}); got != nil {
		t.Errorf("first event: requires %v, want none", got)
	}
	// Second event of process 0 after receiving process 1's first:
	// depends on its local predecessor and on that remote event.
	got := f.requires(Event{Proc: 0, VC: []int64{2, 1}})
	want := []int64{f.id(0, 1), f.id(1, 1)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requires = %v, want %v", got, want)
	}
}

func TestFrontierStable(t *testing.T) {
	f := newFrontier(2)
	if ids := f.stable(); ids != nil {
		t.Errorf("nothing reported: stable = %v, want nil", ids)
	}
	f.observe(Event{Proc: 0, VC: []int64{1, 0}})
	if ids := f.stable(); ids != nil {
		t.Errorf("process 1 silent: stable = %v, want nil", ids)
	}
	f.observe(Event{Proc: 1, VC: []int64{0, 1}})
	if ids := f.stable(); ids != nil {
		t.Errorf("no common past yet: stable = %v, want nil", ids)
	}
	// Process 0 hears from process 1: that remote event enters every
	// future cut and becomes prunable.
	f.observe(Event{Proc: 0, VC: []int64{2, 1}})
	if ids, want := f.stable(), []int64{f.id(1, 1)}; !reflect.DeepEqual(ids, want) {
		t.Errorf("stable = %v, want %v", ids, want)
	}
	// Process 1 hears back: process 0's first two events stabilize;
	// process 1's first was already pruned and must not repeat.
	f.observe(Event{Proc: 1, VC: []int64{2, 2}})
	if ids, want := f.stable(), []int64{f.id(0, 1), f.id(0, 2)}; !reflect.DeepEqual(ids, want) {
		t.Errorf("stable = %v, want %v", ids, want)
	}
}

// After the process's previous event, requires keeps the local
// predecessor and only the clock components that advanced since it;
// unchanged components are implied through the local chain.
func TestFrontierRequiresClockDelta(t *testing.T) {
	f := newFrontier(4)
	f.observe(Event{Proc: 0, VC: []int64{3, 2, 1, 0}})
	// Components 1 and 2 are unchanged; 3 advanced from 0 to 4.
	got := f.requires(Event{Proc: 0, VC: []int64{4, 2, 1, 4}})
	want := []int64{f.id(0, 3), f.id(3, 4)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requires = %v, want %v", got, want)
	}
	f.observe(Event{Proc: 0, VC: []int64{4, 2, 1, 4}})
	// Nothing advanced remotely: the local predecessor alone.
	got = f.requires(Event{Proc: 0, VC: []int64{5, 2, 1, 4}})
	if want := []int64{f.id(0, 4)}; !reflect.DeepEqual(got, want) {
		t.Errorf("requires = %v, want %v", got, want)
	}
	// Other processes' histories do not shorten process 1's list.
	got = f.requires(Event{Proc: 1, VC: []int64{4, 1, 1, 0}})
	if want := []int64{f.id(0, 4), f.id(2, 1)}; !reflect.DeepEqual(got, want) {
		t.Errorf("process 1 first event: requires = %v, want %v", got, want)
	}
}

// With no previous event of the process to chain through — its first
// event, including one first seen mid-stream with a local index above
// 1 — requires keeps every nonzero component.
func TestFrontierRequiresNoPrevious(t *testing.T) {
	f := newFrontier(3)
	f.observe(Event{Proc: 1, VC: []int64{0, 5, 0}})
	got := f.requires(Event{Proc: 0, VC: []int64{1, 5, 2}})
	if want := []int64{f.id(1, 5), f.id(2, 2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("first event: requires = %v, want %v", got, want)
	}
	// Mid-stream first event: index 7, so it names its (unobserved)
	// local predecessor, and every nonzero remote component.
	got = f.requires(Event{Proc: 2, VC: []int64{2, 5, 7}})
	if want := []int64{f.id(2, 6), f.id(0, 2), f.id(1, 5)}; !reflect.DeepEqual(got, want) {
		t.Errorf("mid-stream first event: requires = %v, want %v", got, want)
	}
	// A previous event that is not the local predecessor (a gap in the
	// process's stream) is no chain: every nonzero component again.
	f.observe(Event{Proc: 2, VC: []int64{2, 5, 7}})
	got = f.requires(Event{Proc: 2, VC: []int64{2, 5, 9}})
	if want := []int64{f.id(2, 8), f.id(0, 2), f.id(1, 5)}; !reflect.DeepEqual(got, want) {
		t.Errorf("after a gap: requires = %v, want %v", got, want)
	}
}
