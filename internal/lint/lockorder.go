package lint

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderPkgs are the module-relative prefixes whose mutexes join the
// global acquisition graph: the serving stack and the multiplexer are
// the only long-lived multi-goroutine layers, and a lock-order cycle
// between any two of their mutexes is a deadlock waiting for the right
// interleaving.
var lockOrderPkgs = []string{
	"internal/stream", "internal/mux", "internal/obs",
}

// AnalyzerLockOrder builds the global mutex-acquisition graph — an edge
// A→B whenever some execution path acquires B while holding A, with
// lock identity keyed by struct field path (Type.field) so every method
// locking the same field agrees — and reports each cycle as a deadlock
// risk. Acquisitions through calls count: if f locks A and calls g, and
// g (transitively) locks B, the edge A→B is recorded at the call site.
// Calls through interfaces or function values are not followed; a
// consistent acquisition order everywhere else keeps the graph acyclic.
var AnalyzerLockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "the global mutex-acquisition graph (lock identity = struct field path) must be acyclic — cycles are deadlock risk",
	RunModule: runLockOrder,
}

// lockEdge is one A-held-while-acquiring-B observation.
type lockEdge struct {
	from, to lockKey
	pos      token.Pos // acquisition or call site that creates the edge
	via      string    // non-empty when the edge goes through a call chain
}

func runLockOrder(pass *ModulePass) {
	ix := pass.Index()

	// Pass 1: per-function summaries — the set of locks each function
	// may (transitively) acquire — via fixpoint over the static call
	// graph, so edges through helper calls are seen.
	acquires := make(map[*types.Func]map[lockKey]bool)
	inScope := func(fn *types.Func) bool {
		fi := ix.funcs[fn]
		return fi != nil && relPathMatches(fi.pkg.RelPath, lockOrderPkgs)
	}
	direct := make(map[*types.Func][]lockEdge)
	for _, fn := range ix.order {
		if !inScope(fn) {
			continue
		}
		acquires[fn] = make(map[lockKey]bool)
		fi := ix.funcs[fn]
		w := newLockOrderFlow(fi, func(lock lockKey, held []lockKey, pos token.Pos) {
			acquires[fn][lock] = true
			for _, h := range held {
				direct[fn] = append(direct[fn], lockEdge{from: h, to: lock, pos: pos})
			}
		}, nil)
		w.walk(fi.decl.Body.List)
	}
	for changed := true; changed; {
		changed = false
		for fn, acq := range acquires {
			for _, callee := range ix.callees[fn] {
				for lock := range acquires[callee] {
					if !acq[lock] {
						acq[lock] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: edges. Direct edges were recorded above; call edges add
	// held × callee-summary at each call site.
	edges := make(map[lockKey]map[lockKey]lockEdge)
	addEdge := func(e lockEdge) {
		if e.from == e.to {
			return
		}
		if edges[e.from] == nil {
			edges[e.from] = make(map[lockKey]lockEdge)
		}
		if old, ok := edges[e.from][e.to]; !ok || e.pos < old.pos {
			edges[e.from][e.to] = e
		}
	}
	for _, fn := range ix.order {
		if !inScope(fn) {
			continue
		}
		for _, e := range direct[fn] {
			addEdge(e)
		}
		fi := ix.funcs[fn]
		w := newLockOrderFlow(fi, nil, func(callee *types.Func, held []lockKey, pos token.Pos) {
			for lock := range acquires[callee] {
				for _, h := range held {
					addEdge(lockEdge{from: h, to: lock, pos: pos,
						via: funcName(pass.Pkgs, callee)})
				}
			}
		})
		w.walk(fi.decl.Body.List)
	}

	reportLockCycles(pass, edges)
}

// newLockOrderFlow builds the held-set walker for one function.
func newLockOrderFlow(fi *funcInfo, onAcquire func(lockKey, []lockKey, token.Pos), onCall func(*types.Func, []lockKey, token.Pos)) *lockFlow {
	var mk func() *lockFlow
	mk = func() *lockFlow {
		return &lockFlow{pkg: fi.pkg, onAcquire: onAcquire, onCall: onCall, fresh: mk}
	}
	return mk()
}

// reportLockCycles finds cycles in the acquisition graph and reports
// each once, canonicalized (rotated to the least lock, discovered in
// sorted order) so output is deterministic.
func reportLockCycles(pass *ModulePass, edges map[lockKey]map[lockKey]lockEdge) {
	nodes := make([]lockKey, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	seen := make(map[string]bool) // canonical cycle -> reported
	var stack []lockKey
	onStack := make(map[lockKey]int)
	var dfs func(n lockKey)
	dfs = func(n lockKey) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		tos := make([]lockKey, 0, len(edges[n]))
		for t := range edges[n] {
			tos = append(tos, t)
		}
		sort.Slice(tos, func(i, j int) bool { return tos[i].String() < tos[j].String() })
		for _, t := range tos {
			if at, ok := onStack[t]; ok {
				cycle := append([]lockKey(nil), stack[at:]...)
				reportLockCycle(pass, edges, cycle, seen)
				continue
			}
			dfs(t)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range nodes {
		dfs(n)
	}
}

// reportLockCycle canonicalizes one cycle and reports it at the edge
// site that closes it.
func reportLockCycle(pass *ModulePass, edges map[lockKey]map[lockKey]lockEdge, cycle []lockKey, seen map[string]bool) {
	// Rotate so the least lock leads.
	least := 0
	for i := range cycle {
		if cycle[i].String() < cycle[least].String() {
			least = i
		}
	}
	rot := append(append([]lockKey(nil), cycle[least:]...), cycle[:least]...)
	parts := make([]string, 0, len(rot)+1)
	for _, k := range rot {
		parts = append(parts, k.String())
	}
	parts = append(parts, rot[0].String())
	canon := strings.Join(parts, " -> ")
	if seen[canon] {
		return
	}
	seen[canon] = true
	e := edges[rot[len(rot)-1]][rot[0]]
	msg := "lock-order cycle (deadlock risk): " + canon + "; acquire these mutexes in one global order"
	if e.via != "" {
		msg += " (edge via call to " + e.via + ")"
	}
	pass.Reportf(e.pos, "%s", msg)
}
