package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsCallback enforces the observability delivery contract: no method of an
// EventListener interface value may be invoked while a mu mutex is held.
// Listener callbacks run arbitrary user code; calling one under the store
// mutex invites deadlock (a listener reading DB state) and unbounded lock
// hold times. The sanctioned pattern is to SEQUENCE under the lock — append
// a delivery closure to a queue — and DELIVER after Unlock.
//
// Lock state comes from the shared sweep (locksweep.go), narrowed to
// locks named mu: the rule is about the store mutex, and evMu is held
// around delivery by design. The rule stays lexical — what a callee does
// with the listener is that callee's finding.
var ObsCallback = &Analyzer{
	Name: "obscallback",
	Doc: "EventListener methods must not be invoked while mu is held; " +
		"queue a closure under the lock and deliver it after Unlock",
	Run: runObsCallback,
}

func runObsCallback(pass *ModulePass) {
	for _, fi := range pass.Module.Funcs() {
		checkObsBody(pass, fi.Pkg, fi.Decl.Body, lockEntryKey(fi), fi.Obj.Name())
		for _, lit := range nestedFuncLits(fi.Decl.Body) {
			checkObsBody(pass, fi.Pkg, lit.Body, "", "function literal")
		}
	}
}

// checkObsBody reports this body's listener calls made with a mu held.
func checkObsBody(pass *ModulePass, pkg *Package, body *ast.BlockStmt, entryKey, fnName string) {
	listenerCall := func(_ []ast.Node, n ast.Node) string {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isEventListener(pkg.Info.TypeOf(sel.X)) {
				return sel.Sel.Name
			}
		}
		return ""
	}
	for _, e := range pass.Module.SweepLocks(pkg, body, entryKey, listenerCall) {
		if e.Kind != EvNode {
			continue
		}
		for _, key := range e.Held {
			if strings.HasSuffix(key, ".mu") {
				pass.Reportf(e.Pos,
					"%s invokes EventListener method %s while mu is held (queue a delivery closure under the lock and invoke it after Unlock)",
					fnName, e.What)
				break
			}
		}
	}
}

// isEventListener reports whether t is a named interface type called
// EventListener (the obs contract type, matched by name so the check works
// on any package declaring the convention).
func isEventListener(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "EventListener" {
		return false
	}
	_, isIface := n.Underlying().(*types.Interface)
	return isIface
}
