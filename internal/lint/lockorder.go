package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds the module's lock-acquisition graph and reports
// ordering violations. An edge A -> B means some path acquires B while A
// is held; a cycle in the graph (including the two-edge cycle formed when
// code acquires locks against a documented `//fcae:lock-order A -> B`
// directive) is a potential deadlock and is reported at each offending
// acquisition site.
//
// The analysis is interprocedural via the facts framework: each function
// gets a summary of the acquisitions it performs — directly or through
// the static calls in its body — together with the locks it holds and the
// caller-held locks it has net-released at that point. Summaries compose
// through the call graph to a fixpoint, so `db.mu.Lock(); db.flush()`
// where flush acquires vs.mu yields the edge DB.mu -> VersionSet.mu even
// though the two acquisitions live in different packages.
//
// Lock identity and held state come from the shared sweep (locksweep.go).
// Its release set is what keeps the store's unlock-then-relock windows
// (makeRoomForWrite, flushMem) from reading as recursive acquisition: a
// callee's net-released locks cancel the caller's held set during
// composition. A directive naming a lock the sweep never saw locked or
// unlocked anywhere in the module is itself a finding: after a rename it
// would declare an order between nothing.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock acquisitions must not cycle; //fcae:lock-order A -> B declares " +
		"the documented order and acquisitions contradicting it are reported",
	Run: runLockOrder,
}

// lockAcq is one acquisition fact: key is acquired while held are held,
// after the enclosing call chain net-released rel (caller locks that are
// no longer held when this acquisition runs).
type lockAcq struct {
	key  string
	held []string // sorted
	rel  []string // sorted
	pos  token.Pos
	fn   string // function lexically containing the Lock call
}

// lockCall is a static call made with the given lexical lock context.
type lockCall struct {
	callee *FuncInfo
	held   []string
	rel    []string
}

// loBody is one analyzed body: a declared function or a function literal.
type loBody struct {
	fi    *FuncInfo // nil for function literals
	name  string
	acqs  []lockAcq
	calls []lockCall
}

type loEdge struct {
	from, to string
	pos      token.Pos
	fn       string
	declared bool
}

func runLockOrder(pass *ModulePass) {
	m := pass.Module
	var decls []*loBody
	var lits []*loBody
	known := make(map[string]bool) // every lock the module locks or unlocks
	for _, fi := range m.Funcs() {
		b := sweepLockBody(m, fi.Pkg, fi.Decl.Body, lockEntryKey(fi), fi.Name(), known)
		b.fi = fi
		decls = append(decls, b)
		for _, lit := range nestedFuncLits(fi.Decl.Body) {
			lits = append(lits, sweepLockBody(m, fi.Pkg, lit.Body, "", "function literal in "+fi.Name(), known))
		}
	}

	// Fixpoint over declared functions: a summary is the function's own
	// acquisitions plus the composed summaries of its static callees.
	// Records deduplicate on (key, held, rel), so the sets grow
	// monotonically and the iteration terminates.
	full := make(map[*FuncInfo][]lockAcq, len(decls))
	for _, b := range decls {
		full[b.fi] = dedupeAcqs(b.acqs)
	}
	for changed := true; changed; {
		changed = false
		for _, b := range decls {
			recs := composeLockBody(b, full)
			if len(recs) != len(full[b.fi]) {
				full[b.fi] = recs
				changed = true
			}
		}
	}
	// Function literals are never static call targets, so one composition
	// pass over the final summaries suffices.
	var all [][]lockAcq
	for _, b := range decls {
		all = append(all, full[b.fi])
	}
	for _, b := range lits {
		all = append(all, composeLockBody(b, full))
	}

	// Collapse the acquisition facts into a graph.
	edges := make(map[[2]string]*loEdge)
	reportedRec := make(map[token.Pos]bool)
	for _, recs := range all {
		for _, r := range recs {
			for _, h := range r.held {
				if h == r.key {
					if !reportedRec[r.pos] {
						reportedRec[r.pos] = true
						pass.Reportf(r.pos, "%s acquired in %s while already held (recursive locking deadlocks)", r.key, r.fn)
					}
					continue
				}
				k := [2]string{h, r.key}
				if edges[k] == nil {
					edges[k] = &loEdge{from: h, to: r.key, pos: r.pos, fn: r.fn}
				}
			}
		}
	}
	for _, d := range collectLockDirectives(pass, known) {
		k := [2]string{d.from, d.to}
		if edges[k] == nil {
			edges[k] = d
		}
	}

	// An edge closes a cycle when its head leads back to its tail (the
	// graph is a few dozen locks, so a search per edge is cheap). Detected
	// edges are reported at the acquisition site; declared edges only when
	// the cycle is formed purely by directives.
	sortedEdges := make([]*loEdge, 0, len(edges))
	for _, e := range edges {
		sortedEdges = append(sortedEdges, e)
	}
	sort.Slice(sortedEdges, func(i, j int) bool {
		if sortedEdges[i].from != sortedEdges[j].from {
			return sortedEdges[i].from < sortedEdges[j].from
		}
		return sortedEdges[i].to < sortedEdges[j].to
	})
	adj := make(map[string][]string)
	for _, e := range sortedEdges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, e := range sortedEdges {
		back := lockPath(adj, e.to, e.from)
		if back == nil {
			continue
		}
		cycle := strings.Join(append([]string{e.from}, back...), " -> ")
		if !e.declared {
			pass.Reportf(e.pos, "lock-order violation: %s acquired in %s while %s is held, completing cycle %s", e.to, e.fn, e.from, cycle)
			continue
		}
		// A detected edge on some cycle through e.from gets the report.
		detected := false
		for _, x := range sortedEdges {
			if !x.declared && lockPath(adj, e.from, x.from) != nil && lockPath(adj, x.to, e.from) != nil {
				detected = true
			}
		}
		if !detected {
			pass.Reportf(e.pos, "declared lock-order edge %s -> %s participates in a cycle: %s", e.from, e.to, cycle)
		}
	}
}

// sweepLockBody turns one body's sweep into its own acquisitions and
// calls, each with the lock context at that point, and adds every lock it
// sees to known.
func sweepLockBody(m *Module, pkg *Package, body *ast.BlockStmt, entryKey, name string, known map[string]bool) *loBody {
	b := &loBody{name: name}
	for _, e := range m.SweepLocks(pkg, body, entryKey, nil) {
		switch e.Kind {
		case EvLock:
			known[e.Key] = true
			b.acqs = append(b.acqs, lockAcq{key: e.Key, held: e.Held, rel: e.Released, pos: e.Pos, fn: name})
		case EvUnlock:
			known[e.Key] = true
		case EvCall:
			b.calls = append(b.calls, lockCall{callee: e.Callee, held: e.Held, rel: e.Released})
		}
	}
	return b
}

// composeLockBody merges a body's local acquisitions with its callees'
// summaries: a callee acquisition of a with held h and release r, reached
// while the caller holds H having net-released R, becomes an acquisition
// of a with held (H − r) ∪ h and release R ∪ r. The subtraction is what
// recognizes "callee unlocks the caller's mutex before relocking it".
func composeLockBody(b *loBody, full map[*FuncInfo][]lockAcq) []lockAcq {
	recs := append([]lockAcq(nil), b.acqs...)
	for _, c := range b.calls {
		for _, r := range full[c.callee] {
			heldEff := unionStrings(subtractStrings(c.held, r.rel), r.held)
			relEff := unionStrings(c.rel, r.rel)
			recs = append(recs, lockAcq{key: r.key, held: heldEff, rel: relEff, pos: r.pos, fn: r.fn})
		}
	}
	return dedupeAcqs(recs)
}

func dedupeAcqs(recs []lockAcq) []lockAcq {
	seen := make(map[string]bool, len(recs))
	out := recs[:0]
	for _, r := range recs {
		k := r.key + "|" + strings.Join(r.held, ",") + "|" + strings.Join(r.rel, ",")
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func subtractStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	drop := make(map[string]bool, len(b))
	for _, s := range b {
		drop[s] = true
	}
	var out []string
	for _, s := range a {
		if !drop[s] {
			out = append(out, s)
		}
	}
	return out
}

func unionStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// collectLockDirectives reads //fcae:lock-order A -> B into declared
// edges, reporting the ones that are not of that form or name a lock
// outside known.
func collectLockDirectives(pass *ModulePass, known map[string]bool) []*loEdge {
	var out []*loEdge
	for _, d := range pass.Module.Directives.All("lock-order") {
		from, to, ok := strings.Cut(d.Args, "->")
		from, to = strings.TrimSpace(from), strings.TrimSpace(to)
		if !ok || from == "" || to == "" || strings.Contains(to, "->") {
			pass.Reportf(d.Pos, "%s", d.Malformed())
			continue
		}
		unknown := false
		for _, key := range []string{from, to} {
			if !known[key] {
				unknown = true
				pass.Reportf(d.Pos, "%s names unknown lock %q: nothing in the module locks or unlocks it", d, key)
			}
		}
		if !unknown {
			out = append(out, &loEdge{from: from, to: to, pos: d.Pos, declared: true})
		}
	}
	return out
}

// lockPath returns a shortest path from one lock to another along adj,
// both ends included (just [from] when they are the same lock), or nil
// when there is none.
func lockPath(adj map[string][]string, from, to string) []string {
	prev := map[string]string{from: from}
	for queue := []string{from}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		if v == to {
			path := []string{to}
			for v != from {
				v = prev[v]
				path = append(path, v)
			}
			slices.Reverse(path)
			return path
		}
		for _, w := range adj[v] {
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}
