package mux

import (
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// Registration attaches one predicate to a Group.
type Registration struct {
	// ID names the predicate within the group (unique, non-empty).
	ID string
	// Tenant is the owning tenant; empty means "default".
	Tenant string
	// Spec is the predicate.
	Spec pred.Spec
	// Involved restricts a conjunctive predicate to the listed
	// processes (distinct, each in [0, procs)); nil means all. The
	// group steps the predicate only on events of these processes.
	Involved []int
	// Init gives per-process initial variable values, at most one per
	// process. nil means "seed from the registration cut": the group
	// fills in the last delivered value of the predicate's variable on
	// each process, so the detector observes the computation's suffix
	// with the correct starting state.
	Init []int64
	// AllEvents steps the detector on every delivered event with the
	// raw timestamps — the registration of the predicate a session is
	// opened with. It bypasses the relevance index, is never
	// latch-stopped, and a step failure latches the group's sticky error
	// (Step returns it) instead of failing the predicate alone. Only
	// events that read its variable (detect.Event.Reads: tagged with it,
	// or untagged) move its payload; on an event of another variable
	// the process's last value carries forward.
	AllEvents bool
	// Slice maintains the predicate's incremental slice alongside its
	// detector: the group feeds relevance-filtered events into a shared
	// per-variable slicer whose compacting frontier replaces unbounded
	// history. Regular truth-payload families only (the registry's
	// Sliceable capability); the registration must precede the group's
	// first event.
	Slice bool
}

// Update is one predicate verdict change, fanned out by Drain. Seq
// numbers the updates of one predicate from 1 so consumers can spot
// reordering or loss downstream.
type Update struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Seq      int64  `json:"seq"`
	Possibly bool   `json:"possibly"`
	Err      string `json:"error,omitempty"`
}

// Stats is a point-in-time view of a group.
type Stats struct {
	Registered int   // predicates registered (including latched/failed)
	Active     int   // predicates still being stepped
	Steps      int64 // detector steps performed
	Skipped    int64 // detector steps avoided by the relevance index
	Delivered  int64 // events causally delivered
	Holdback   int   // events buffered awaiting causal delivery
	Window     int   // summed detector windows

	SliceRetained  int   // events held across the shared slicers' frontiers
	SliceCompacted int64 // cumulative events freed by slice compaction
}

// predicate is one registered detector and its routing state.
type predicate struct {
	id, tenant string
	spec       pred.Spec
	det        detect.Detector
	routeVar   string // "" for all-events registrations
	procSet    []bool // the involved processes; nil = all
	all        bool
	sliced     bool       // holds a reference on the routeVar's shared slicer
	filter     *varFilter // all-events predicates only

	seq      int64
	possibly bool
	err      error
	active   bool // still stepped; false once latched (routed), failed, or unregistered
	dirty    bool // stepped since the last flush
	window   int  // detector window as of the last flush

	steps     int64 // detector steps attempted over the predicate's lifetime
	costSteps int64 // steps already reported through the cost hook
}

// varState is the last delivered value of one variable per process,
// used to seed detectors registered mid-stream.
type varState struct {
	val   []int64 // last Event.Val
	truth []int64 // last Event.Truth as 0/1
}

// Group multiplexes many predicate detectors over one computation's
// event stream. Events are causally ordered once; each delivered event
// is routed through the relevance index and stepped only into the
// detectors whose variable (and process set) it touches, under
// projected timestamps (see projector). A Group is confined to one
// goroutine.
type Group struct {
	procs     int
	delivery  *Delivery
	onDeliver func(detect.Event)
	lastVC    [][]int64 // raw timestamp of the last delivered event per process

	preds  map[string]*predicate
	onCost func(tenant, family, id string, steps int64)
	byVar  map[string][]*predicate // active var-routed predicates
	all    []*predicate            // active all-events predicates
	projs  map[string]*projector   // one per subscribed variable
	vars   map[string]*varState
	dirty  []*predicate
	queued []Update

	slicers        map[string]*groupSlicer // shared per-variable slicers (slicer.go)
	sliceCompacted int64                   // cumulative events freed by compaction

	tenants   map[string]int
	reap      []*predicate // deactivated but not yet removed from the indexes
	active    int
	steps     int64
	skipped   int64
	flushes   int
	windowSum int
}

// NewGroup builds an empty group over procs processes.
func NewGroup(procs int) *Group {
	g := &Group{
		procs:   procs,
		lastVC:  make([][]int64, procs),
		preds:   make(map[string]*predicate),
		byVar:   make(map[string][]*predicate),
		projs:   make(map[string]*projector),
		vars:    make(map[string]*varState),
		tenants: make(map[string]int),
	}
	g.delivery = NewDelivery(procs, g.deliver)
	return g
}

// Register resolves the registration's incremental detector from the
// detector registry and attaches it. A predicate registered mid-stream
// observes the computation from the registration cut onward: its
// variable is seeded with the last delivered values (unless Init is
// given) and its clocks count only subsequent events of the variable.
func (g *Group) Register(r Registration) error {
	if r.ID == "" {
		return fmt.Errorf("mux: registration needs an id")
	}
	if _, dup := g.preds[r.ID]; dup {
		return fmt.Errorf("mux: predicate %q already registered", r.ID)
	}
	if len(r.Init) > g.procs {
		return fmt.Errorf("mux: predicate %q: init has %d values for %d processes", r.ID, len(r.Init), g.procs)
	}
	if err := r.Spec.Validate(g.procs); err != nil {
		return err
	}
	procSet, err := involvedSet(r.Involved, r.Spec.Family, g.procs)
	if err != nil {
		return fmt.Errorf("mux: %w", err)
	}
	entry, ok := detect.Lookup(r.Spec.Family, detect.ModalityPossibly)
	if !ok || !entry.Caps.Incremental {
		return fmt.Errorf("mux: predicate family %v has no incremental detector", r.Spec.Family)
	}
	if r.Slice && (!entry.Caps.Sliceable || entry.Caps.Payload != detect.PayloadTruth) {
		return fmt.Errorf("mux: predicate %q cannot maintain a slice: %w", r.ID,
			&slicing.NotRegularError{Detail: fmt.Sprintf("family %v is not a regular truth-payload family", r.Spec.Family)})
	}
	v := r.Spec.Var
	if r.Spec.Family == pred.InFlight {
		v = detect.InFlightVar
	}
	routeVar := v
	if r.AllEvents {
		routeVar = ""
	}
	init := r.Init
	if init == nil && routeVar != "" {
		init = g.seedInit(routeVar, entry.Caps.Payload)
	}
	det, err := entry.New(r.Spec, detect.Config{
		Procs:    g.procs,
		Involved: r.Involved,
		Init:     init,
	})
	if err != nil {
		return fmt.Errorf("mux: %w", err)
	}
	if r.Slice {
		if err := g.AttachSlicer(routeVar, v, procSet, init); err != nil {
			return err
		}
	}
	tenant := r.Tenant
	if tenant == "" {
		tenant = "default"
	}
	p := &predicate{
		id:       r.ID,
		tenant:   tenant,
		spec:     r.Spec,
		det:      det,
		routeVar: routeVar,
		all:      r.AllEvents,
		sliced:   r.Slice,
		active:   true,
	}
	if !p.all {
		p.procSet = procSet
	} else {
		p.filter = &varFilter{v: v, payload: entry.Caps.Payload}
		if p.filter.payload != detect.PayloadDelta {
			p.filter.carry = make([]int64, g.procs)
			copy(p.filter.carry, init)
		}
	}
	g.preds[r.ID] = p
	g.tenants[tenant]++
	g.active++
	if p.all {
		g.all = append(g.all, p)
	} else {
		g.byVar[routeVar] = append(g.byVar[routeVar], p)
		if g.projs[routeVar] == nil {
			g.projs[routeVar] = newProjector(g.procs)
		}
	}
	// A satisfied initial cut latches immediately.
	if det.Possibly() {
		g.latch(p)
	}
	return nil
}

// seedInit builds the Init vector of a mid-stream registration from the
// last delivered values of the variable.
func (g *Group) seedInit(v string, payload detect.Payload) []int64 {
	st := g.vars[v]
	if st == nil {
		return nil
	}
	switch payload {
	case detect.PayloadValue:
		return append([]int64(nil), st.val...)
	case detect.PayloadTruth:
		return append([]int64(nil), st.truth...)
	default: // PayloadDelta counts from zero at the registration cut
		return nil
	}
}

// Unregister detaches a predicate. Its detector state is freed; no
// further updates are emitted for it.
func (g *Group) Unregister(id string) error {
	p, ok := g.preds[id]
	if !ok {
		return fmt.Errorf("mux: predicate %q is not registered", id)
	}
	g.deactivate(p)
	g.reapInactive()
	if p.sliced {
		g.DetachSlicer(p.routeVar)
	}
	g.tenants[p.tenant]--
	if g.tenants[p.tenant] == 0 {
		delete(g.tenants, p.tenant)
	}
	g.windowSum -= p.window
	p.window = 0
	delete(g.preds, id)
	return nil
}

// deactivate marks a predicate as no longer stepped. Removal from the
// stepping indexes is deferred to reapInactive so a deactivation that
// fires while deliver is iterating a subscriber list never mutates the
// slice under the iteration.
func (g *Group) deactivate(p *predicate) {
	if !p.active {
		return
	}
	p.active = false
	g.active--
	g.reap = append(g.reap, p)
}

// reapInactive removes deactivated predicates from the stepping indexes
// and frees their detectors. Must not run while deliver is iterating.
func (g *Group) reapInactive() {
	for _, p := range g.reap {
		if p.all {
			g.all = removePred(g.all, p)
			continue
		}
		g.byVar[p.routeVar] = removePred(g.byVar[p.routeVar], p)
		if len(g.byVar[p.routeVar]) == 0 {
			delete(g.byVar, p.routeVar)
			delete(g.projs, p.routeVar) // re-created (at the new cut) on re-subscription
		}
		if !p.all {
			p.det = nil
		}
	}
	g.reap = g.reap[:0]
}

func removePred(list []*predicate, p *predicate) []*predicate {
	for i, q := range list {
		if q == p {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// latch records a true Possibly verdict: the update is queued, and a
// var-routed predicate stops being stepped (the verdict is monotone, so
// further events cannot change it — this is what keeps the per-event
// cost proportional to the event's subscribers, not to every predicate
// ever registered). All-events predicates keep stepping: their session
// reads the detector's window and trace until close.
func (g *Group) latch(p *predicate) {
	p.possibly = true
	p.seq++
	g.queued = append(g.queued, Update{ID: p.id, Tenant: p.tenant, Seq: p.seq, Possibly: true})
	if !p.all {
		g.windowSum -= p.window
		p.window = 0
		p.dirty = false
		g.deactivate(p)
	}
}

// failPred records a per-predicate step failure. The predicate stops
// being stepped and reports the error in its update stream; the group
// (and its other predicates) keeps running.
func (g *Group) failPred(p *predicate, err error) {
	p.err = err
	p.seq++
	g.queued = append(g.queued, Update{ID: p.id, Tenant: p.tenant, Seq: p.seq, Possibly: p.possibly, Err: err.Error()})
	g.windowSum -= p.window
	p.window = 0
	p.dirty = false
	g.deactivate(p)
}

// Step ingests one event; causally ready events are routed immediately.
//
//lint:hotpath
func (g *Group) Step(ev detect.Event) error {
	return g.delivery.Step(ev)
}

// OnDeliver installs a hook invoked for every causally delivered event,
// before routing. Transports use it to retain the delivered trace for
// the close-time Definitely decision.
func (g *Group) OnDeliver(fn func(detect.Event)) { g.onDeliver = fn }

// OnCost installs a hook invoked at every Flush with each stepped
// predicate's step delta since its last report, keyed by tenant, family
// and predicate id. Batched per flush, so the per-event routing path
// pays nothing; the hook runs on the group's goroutine and must be
// cheap. The stream engine uses it to feed the cost ledger; mux itself
// stays metrics-free (the plain signature keeps the layering rule that
// mux imports no observability machinery).
func (g *Group) OnCost(fn func(tenant, family, id string, steps int64)) { g.onCost = fn }

// deliver routes one causally delivered event.
func (g *Group) deliver(ev detect.Event) {
	g.lastVC[ev.Proc] = ev.VC
	if g.onDeliver != nil {
		g.onDeliver(ev)
	}
	if g.slicers != nil {
		g.observeSlicers(ev)
	}
	if ev.Var != "" {
		g.recordVar(ev)
	}
	stepped := 0
	for _, p := range g.all {
		if !p.active {
			continue
		}
		stepped++
		g.stepPred(p, p.filter.read(ev))
	}
	if subs := g.byVar[ev.Var]; len(subs) > 0 {
		pe := ev
		pe.VC = g.projs[ev.Var].project(ev.Proc, ev.VC)
		for _, p := range subs {
			if !p.active || (p.procSet != nil && !p.procSet[ev.Proc]) {
				continue
			}
			stepped++
			g.stepPred(p, pe)
		}
	}
	g.steps += int64(stepped)
	g.skipped += int64(g.active - stepped)
}

// varFilter is the variable filter of an all-events predicate. The
// predicate steps on every event (its raw timestamps need each
// process's full local order), but only an event that reads its
// variable moves the payload; an event of another variable carries the
// process's last value forward, or contributes no delta.
type varFilter struct {
	v       string         // the variable whose payload the predicate reads
	payload detect.Payload // the payload field its detector consumes
	carry   []int64        // last value/truth per process; nil for delta payloads
}

// read applies the filter to one event.
func (f *varFilter) read(ev detect.Event) detect.Event {
	if ev.Reads(f.v) {
		switch f.payload {
		case detect.PayloadValue:
			f.carry[ev.Proc] = ev.Val
		case detect.PayloadTruth:
			f.carry[ev.Proc] = 0
			if ev.Truth {
				f.carry[ev.Proc] = 1
			}
		}
		return ev
	}
	switch f.payload {
	case detect.PayloadValue:
		ev.Val = f.carry[ev.Proc]
	case detect.PayloadTruth:
		ev.Truth = f.carry[ev.Proc] != 0
	default:
		ev.Val = 0
	}
	return ev
}

// stepPred feeds one event to one predicate's detector. A failing
// all-events predicate kills the group; any other fails alone.
func (g *Group) stepPred(p *predicate, ev detect.Event) {
	p.steps++
	if err := p.det.Step(ev); err != nil {
		g.failPred(p, err)
		if p.all {
			g.delivery.Fail(fmt.Errorf("mux: predicate %q: %w", p.id, err))
		}
		return
	}
	if !p.dirty {
		p.dirty = true
		g.dirty = append(g.dirty, p)
	}
}

// recordVar tracks the last delivered value of the event's variable,
// the seed state for detectors registered after this point.
func (g *Group) recordVar(ev detect.Event) {
	st := g.vars[ev.Var]
	if st == nil {
		st = &varState{val: make([]int64, g.procs), truth: make([]int64, g.procs)}
		g.vars[ev.Var] = st
	}
	st.val[ev.Proc] = ev.Val
	if ev.Truth {
		st.truth[ev.Proc] = 1
	} else {
		st.truth[ev.Proc] = 0
	}
}

// Flush advances every detector stepped since the last flush (one
// batched sweep per detector however many events arrived), latches new
// verdicts, prunes the projections below the delivered frontier, and
// returns whether any registered predicate has latched Possibly.
func (g *Group) Flush() bool {
	g.flushes++
	for _, p := range g.dirty {
		if g.onCost != nil {
			// Report before the active check so a predicate that latched
			// or failed mid-batch still accounts its final steps.
			if d := p.steps - p.costSteps; d > 0 {
				p.costSteps = p.steps
				g.onCost(p.tenant, p.spec.Family.String(), p.id, d)
			}
		}
		if !p.active {
			continue // latched or failed while this flush list was built
		}
		p.dirty = false
		verdict := p.det.Flush()
		w := p.det.Window()
		g.windowSum += w - p.window
		p.window = w
		if verdict && !p.possibly {
			g.latch(p)
		}
	}
	g.dirty = g.dirty[:0]
	g.reapInactive()
	g.pruneProjections()
	g.compactSlicers()
	any := false
	for _, p := range g.preds {
		if p.possibly {
			any = true
			break
		}
	}
	return any
}

// pruneProjections drops projection state at or below the component-wise
// minimum of the last delivered clocks — the floor below which no future
// event's timestamp can reach. Until every process has delivered at
// least one event the floor is unknown and nothing is pruned (the same
// silent-process caveat the detector windows have; bound exposure with
// a max window).
func (g *Group) pruneProjections() {
	if len(g.projs) == 0 {
		return
	}
	mins := make([]int64, g.procs)
	for q := range mins {
		mins[q] = -1
	}
	for _, vc := range g.lastVC {
		if vc == nil {
			return
		}
		for q, v := range vc {
			if mins[q] < 0 || v < mins[q] {
				mins[q] = v
			}
		}
	}
	for _, pj := range g.projs {
		pj.prune(mins)
	}
}

// Drain returns the updates queued since the last Drain: one entry per
// verdict latch or predicate failure, sequence-numbered per predicate.
func (g *Group) Drain() []Update {
	out := g.queued
	g.queued = nil
	return out
}

// States reports the current state of every registered predicate,
// ordered by id — the close-time fan-out.
func (g *Group) States() []Update {
	out := make([]Update, 0, len(g.preds))
	for _, p := range g.preds {
		u := Update{ID: p.id, Tenant: p.tenant, Seq: p.seq, Possibly: p.possibly}
		if p.err != nil {
			u.Err = p.err.Error()
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Possibly reports a registered predicate's latched verdict.
func (g *Group) Possibly(id string) bool {
	if p := g.preds[id]; p != nil {
		return p.possibly
	}
	return false
}

// Err returns the group's sticky error, if any: a causal-delivery
// failure, an all-events predicate's step failure, or a slice
// maintenance failure. Step returns it too.
func (g *Group) Err() error { return g.delivery.Err() }

// Delivered returns the total number of causally delivered events.
func (g *Group) Delivered() int64 { return g.delivery.Delivered() }

// DeliveredOn returns the number of delivered events of one process.
func (g *Group) DeliveredOn(p int) int64 { return g.delivery.DeliveredOn(p) }

// Holdback returns the number of buffered undeliverable events.
func (g *Group) Holdback() int { return g.delivery.Holdback() }

// Registered returns the number of registered predicates.
func (g *Group) Registered() int { return len(g.preds) }

// Active returns the number of predicates still being stepped.
func (g *Group) Active() int { return g.active }

// TenantCount returns the number of registered predicates per tenant.
func (g *Group) TenantCount(tenant string) int { return g.tenants[tenant] }

// Tenants returns a copy of the per-tenant registration counts.
func (g *Group) Tenants() map[string]int {
	out := make(map[string]int, len(g.tenants))
	for t, n := range g.tenants {
		out[t] = n
	}
	return out
}

// Window returns the summed detector windows as of the last Flush.
func (g *Group) Window() int { return g.windowSum }

// Flushes returns the number of Flush calls.
func (g *Group) Flushes() int { return g.flushes }

// Stats returns a point-in-time view of the group.
func (g *Group) Stats() Stats {
	return Stats{
		Registered: len(g.preds),
		Active:     g.active,
		Steps:      g.steps,
		Skipped:    g.skipped,
		Delivered:  g.delivery.Delivered(),
		Holdback:   g.delivery.Holdback(),
		Window:     g.windowSum,

		SliceRetained:  g.SliceRetained(),
		SliceCompacted: g.sliceCompacted,
	}
}
