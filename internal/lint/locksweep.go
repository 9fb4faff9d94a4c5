package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The lock-state sweep answers, once, the question four analyzers ask:
// which mutexes are held at this point of this body? The walk is lexical,
// in source order: a visible Lock raises the lock's count and an Unlock
// lowers it, so a count below zero means the body has released a lock its
// caller holds (the store's unlock-then-relock windows). A deferred call
// runs at return and changes nothing before it; a function literal is a
// separate not-held body (a closure queued under a lock runs later,
// outside it); a method named *Locked starts with its receiver's mu held.
//
// Lock identity is `pkg.Type.field` for struct-field mutexes (the repo
// convention: one lock instance class per field) and `pkg.name` for
// variable mutexes.

const (
	EvLock   = iota // Key is acquired; Held and Released are the state before it
	EvUnlock        // Key is released
	EvCall          // a call resolved to Callee (one event per possible dynamic callee)
	EvNode          // a node the caller's classifier named; What is its label
)

// LockEvent is one step of a body's sweep with the lock state at that
// point. Held and Released are sorted.
type LockEvent struct {
	Kind     int
	Pos      token.Pos
	Key      string
	Callee   *FuncInfo
	What     string
	Held     []string // locks with a positive count
	Released []string // locks with a negative count: the caller's, released here
}

var (
	lockMethods   = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
	unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}
)

// SweepLocks walks one body and returns its events in position order.
// entryKey, when not empty, is held on entry (see lockEntryKey). classify,
// when not nil, is asked about every node and adds an EvNode event for
// each one it labels; it sees deferred calls too, since what a deferred
// call does still happens under whatever the body holds at return.
func (m *Module) SweepLocks(pkg *Package, body *ast.BlockStmt, entryKey string, classify func(stack []ast.Node, n ast.Node) string) []LockEvent {
	var events []LockEvent
	deferred := make(map[*ast.CallExpr]bool)
	walkParents(body, func(stack []ast.Node, n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // swept as its own body
		}
		if classify != nil {
			if what := classify(stack, n); what != "" {
				events = append(events, LockEvent{Kind: EvNode, Pos: n.Pos(), What: what})
			}
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			if deferred[n] {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isSyncMutex(pkg.Info.TypeOf(sel.X)) {
				if key := lockKeyOf(pkg, sel.X); key != "" {
					switch {
					case lockMethods[sel.Sel.Name]:
						events = append(events, LockEvent{Kind: EvLock, Pos: n.Pos(), Key: key})
					case unlockMethods[sel.Sel.Name]:
						events = append(events, LockEvent{Kind: EvUnlock, Pos: n.Pos(), Key: key})
					}
				}
				return true
			}
			// Through an interface or a function value, what any possible
			// concrete callee does applies here.
			for _, callee := range m.Callees(pkg.Info, n) {
				events = append(events, LockEvent{Kind: EvCall, Pos: n.Pos(), Callee: callee})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].Pos < events[j].Pos })

	count := make(map[string]int)
	if entryKey != "" {
		count[entryKey] = 1
	}
	for i := range events {
		e := &events[i]
		for k, c := range count {
			switch {
			case c > 0:
				e.Held = append(e.Held, k)
			case c < 0:
				e.Released = append(e.Released, k)
			}
		}
		sort.Strings(e.Held)
		sort.Strings(e.Released)
		switch e.Kind {
		case EvLock:
			count[e.Key]++
		case EvUnlock:
			count[e.Key]--
		}
	}
	return events
}

// lockEntryKey returns the lock held on entry for *Locked methods: the
// receiver type's mu field, per the mutexguard convention.
func lockEntryKey(fi *FuncInfo) string {
	if !strings.HasSuffix(fi.Obj.Name(), "Locked") {
		return ""
	}
	recv := fi.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	n := namedOf(recv.Type())
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "mu" && isSyncMutex(f.Type()) {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + ".mu"
		}
	}
	return ""
}

// lockKeyOf names the lock instance class denoted by the mutex expression
// e: pkg.Type.field for struct fields, pkg.name for variables. Returns ""
// when the expression has no stable name (skip the event).
func lockKeyOf(pkg *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if n := namedOf(pkg.Info.TypeOf(x.X)); n != nil && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + x.Sel.Name
		}
		return pkg.Types.Name() + "." + x.Sel.Name
	case *ast.Ident:
		return pkg.Types.Name() + "." + x.Name
	}
	return ""
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
