package stream

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// TestLedgerAttributesCostPerTenant drives two tenants with known event
// counts through one engine and checks the cost ledger against that
// oracle: events land on the right (tenant, family) scope, CPU is
// attributed, and a registered predicate shows up in the hot-predicates
// view under its own tenant.
func TestLedgerAttributesCostPerTenant(t *testing.T) {
	led := obs.NewLedger()
	e := NewEngine(Config{Shards: 2, Ledger: led})
	defer e.Shutdown()

	if err := e.Open("a", Spec{Pred: "all(x)", Procs: 2, Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Open("b", Spec{Pred: "all(x)", Procs: 2, Tenant: "rival"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("a", []Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 0, VC: []int64{2, 0}},
		{Proc: 0, VC: []int64{3, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("b", []Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ClosePredicates("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ClosePredicates("b"); err != nil {
		t.Fatal(err)
	}

	// A mux session owned by one tenant, running a predicate registered
	// by another: session costs go to the owner, predicate steps to the
	// registrant.
	if err := e.Open("m", Spec{Mux: true, Procs: 2, Tenant: "muxowner"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("m", RegisterSpec{ID: "hot-1", Tenant: "acme", Pred: "all(v0)"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("m", []Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "v0", Val: 1, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Var: "v0", Val: 1, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ClosePredicates("m"); err != nil {
		t.Fatal(err)
	}

	snap := led.Snapshot()
	events := map[string]int64{}
	steps := map[string]int64{}
	for _, s := range snap.Scopes {
		events[s.Tenant] += s.Events
		steps[s.Tenant] += s.Steps
	}
	if events["acme"] != 4 || events["rival"] != 2 || events["muxowner"] != 2 {
		t.Fatalf("per-tenant events: got %v, want acme=4 rival=2 muxowner=2", events)
	}
	if steps["acme"] == 0 || steps["rival"] == 0 {
		t.Fatalf("per-tenant steps not attributed: %v", steps)
	}
	if snap.TotalCPUNanos <= 0 {
		t.Fatalf("total CPU not attributed: %d", snap.TotalCPUNanos)
	}
	if got := e.Ledger().TenantCPUNanos("acme") + e.Ledger().TenantCPUNanos("rival") +
		e.Ledger().TenantCPUNanos("muxowner"); got != snap.TotalCPUNanos {
		t.Fatalf("tenant CPU does not sum to the total: %d vs %d", got, snap.TotalCPUNanos)
	}

	hot := led.HotPredicates(10)
	found := false
	for _, p := range hot {
		if p.ID == "hot-1" {
			found = true
			if p.Tenant != "acme" || p.Steps == 0 {
				t.Fatalf("hot predicate misattributed: %+v", p)
			}
		}
	}
	if !found {
		t.Fatalf("hot-predicates view missing hot-1: %+v", hot)
	}
}

// TestTenantCPUShareSLO arms the noisy-neighbour rule with a floor of one
// nanosecond and a 50%% share budget, then lets a single tenant hold all
// the attributed CPU: the rule must fire, once, naming the tenant.
func TestTenantCPUShareSLO(t *testing.T) {
	breaches := make(chan string, 8)
	e := NewEngine(Config{
		Shards: 1, Ledger: obs.NewLedger(),
		SLO: SLOConfig{
			TenantCPUShare: 0.5,
			TenantCPUFloor: time.Nanosecond,
			OnBreach: func(rule, detail, path string) {
				if rule == SLOTenantCPUShare {
					breaches <- detail
				}
			},
		},
	})
	defer e.Shutdown()

	if err := e.Open("s", Spec{Pred: "all(x)", Procs: 2, Tenant: "greedy"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("s", []Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	// Queries publish with sampling on, which is where the share check
	// runs; by now the append has charged CPU to the tenant's scope.
	if _, _, err := e.QueryUpdates("s"); err != nil {
		t.Fatal(err)
	}

	select {
	case detail := <-breaches:
		if !bytes.Contains([]byte(detail), []byte("greedy")) {
			t.Fatalf("breach detail does not name the tenant: %q", detail)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tenant_cpu_share did not fire within 5s")
	}
}

// TestProfileLabelsOnShardGoroutines checks the deterministic half of
// profile attribution: with Config.ProfileLabels the shard workers label
// themselves, so a goroutine profile (debug=1 aggregates by label set)
// names the subsystem and shard without any sampling luck involved.
func TestProfileLabelsOnShardGoroutines(t *testing.T) {
	e := NewEngine(Config{Shards: 2, ProfileLabels: true})
	defer e.Shutdown()

	// Route one synchronous request through every shard so each worker
	// has provably executed its prologue (a freshly spawned goroutine
	// that has never been scheduled carries no labels yet).
	for i := 0; ; i++ {
		id := fmt.Sprintf("warm-%d", i)
		if err := e.Open(id, Spec{Pred: "all(x)", Procs: 1, Tenant: "warm"}); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		busy := 0
		for _, sh := range snap.Shards {
			if sh.Sessions > 0 {
				busy++
			}
		}
		if busy == len(snap.Shards) {
			break
		}
		if i > 256 {
			t.Fatal("could not route a session onto every shard")
		}
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"subsystem":"gpd-stream"`, `"shard":"0"`, `"shard":"1"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("goroutine profile missing label %s:\n%s", want, out)
		}
	}
}

// TestCPUProfileCarriesTenantLabels takes a real CPU profile while the
// engine crunches one tenant's events under ProfileLabels and asserts the
// profile's string table contains the tenant/family label vocabulary —
// the property the whole attribution feature exists for. CPU sampling is
// statistical (100Hz), so when the run is too fast to catch a single
// labeled sample the test skips rather than flakes.
func TestCPUProfileCarriesTenantLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU profiling run")
	}
	e := NewEngine(Config{Shards: 2, Ledger: obs.NewLedger(), ProfileLabels: true})
	defer e.Shutdown()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for sess := 0; time.Now().Before(deadline); sess++ {
		id := fmt.Sprintf("p%d", sess)
		if err := e.Open(id, Spec{Pred: "all(x)", Procs: 2, Tenant: "profiled"}); err != nil {
			t.Fatal(err)
		}
		batch := make([]Event, 0, 256)
		for i := 0; i < 256; i++ {
			batch = append(batch, Event{Proc: 0, VC: []int64{int64(i + 1), 0}, Truth: i%2 == 0})
		}
		if err := e.Append(id, batch); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.ClosePredicates(id); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	// The pprof wire format is gzipped protobuf; every label key and
	// value lands in the string table as plain UTF-8, so a byte scan
	// decides label presence without a protobuf decoder.
	gz, err := gzip.NewReader(bytes.NewReader(prof.Bytes()))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("samples")) {
		t.Skip("profiler produced no samples on this machine")
	}
	if !bytes.Contains(raw, []byte("tenant")) || !bytes.Contains(raw, []byte("profiled")) {
		t.Skip("no labeled samples caught in 500ms; nothing to assert")
	}
	for _, want := range []string{"tenant", "profiled", "family", "shard"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("CPU profile string table missing %q", want)
		}
	}
}
