package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak enforces the worker-join discipline on lifecycle types: any
// goroutine spawned on behalf of a type that has a Close or Stop method
// must be joinable by it. Concretely, for `go x.method(...)` (or a `go
// func(){...}()` inside a method) where x's type T declares Close/Stop:
//
//  1. T must have a sync.WaitGroup field;
//  2. the spawning function must call Add on that field lexically before
//     the go statement (Add-before-go, so Close cannot miss a racing
//     spawn);
//  3. the goroutine body must call Done on the field (normally the first
//     deferred statement);
//  4. Wait on the field must be reachable from T's Close or Stop through
//     static calls.
//
// This is the shutdown contract the lsm store and the dispatch scheduler
// rely on: Close returning means every background worker has exited, so
// nothing touches the closed state afterwards. Goroutines spawned by free
// functions (worker pools joined locally) are out of scope — the leak
// hazard is a long-lived object whose teardown forgets its workers.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "goroutines of a type with Close/Stop must be joined: wg.Add before go, " +
		"Done in the body, Wait reachable from Close/Stop",
	Run: runGoLeak,
}

func runGoLeak(pass *ModulePass) {
	m := pass.Module

	// Index the module's lifecycle types: named type -> Close/Stop funcs.
	closers := make(map[*types.Named][]*FuncInfo)
	for _, fi := range m.Funcs() {
		name := fi.Obj.Name()
		if name != "Close" && name != "Stop" {
			continue
		}
		if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				closers[n] = append(closers[n], fi)
			}
		}
	}

	waitOK := make(map[*types.Named]bool) // one Wait report per type
	for _, fi := range m.Funcs() {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				checkGoStmt(pass, fi, gs, closers, waitOK)
			}
			return true
		})
	}
}

// checkGoStmt applies the join discipline to one go statement.
func checkGoStmt(pass *ModulePass, fi *FuncInfo, gs *ast.GoStmt, closers map[*types.Named][]*FuncInfo, waitOK map[*types.Named]bool) {
	m := pass.Module
	info := fi.Pkg.Info

	// Resolve the owning lifecycle type and the goroutine body.
	var (
		owner *types.Named
		body  *ast.BlockStmt
		bpkg  *Package
	)
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.SelectorExpr:
		// go x.method(...): the owner is x's named type.
		owner = namedOf(info.TypeOf(fun.X))
		if callee := m.StaticCallee(info, gs.Call); callee != nil {
			body, bpkg = callee.Decl.Body, callee.Pkg
		} else if dcs := m.DynamicCallees(info, gs.Call); len(dcs) > 0 {
			// Goroutine launched through an interface (or func value): the
			// body may be any resolved implementation, so the discipline
			// applies to each whose receiver is itself a lifecycle type.
			for _, dc := range dcs {
				checkDynamicSpawn(pass, gs, dc, closers, waitOK)
			}
			return
		}
	case *ast.FuncLit:
		// go func(){...}() inside a method: the receiver's type owns it.
		if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
			owner = namedOf(recv.Type())
		}
		body, bpkg = fun.Body, fi.Pkg
	}
	if owner == nil || len(closers[owner]) == 0 {
		return // not a lifecycle type's worker; out of scope
	}

	if !hasWaitGroupField(owner) {
		pass.Reportf(gs.Pos(),
			"%s spawns a goroutine but has no sync.WaitGroup field; Close cannot join it (add a wg field: Add before go, defer Done in the body, Wait in Close)",
			owner.Obj().Name())
		return
	}

	// (2) Add on the owner's WaitGroup lexically before the go statement.
	if add := firstWGCall(fi.Pkg, owner, fi.Decl.Body, "Add"); !add.IsValid() || add > gs.Pos() {
		pass.Reportf(gs.Pos(),
			"goroutine of %s is not registered before it starts; call the WaitGroup's Add before the go statement",
			owner.Obj().Name())
	}

	// (3) Done inside the goroutine body (skipped when the body is outside
	// the module — a summary can only understate).
	if body != nil && !firstWGCall(bpkg, owner, body, "Done").IsValid() {
		pass.Reportf(gs.Pos(),
			"goroutine of %s never calls Done on its WaitGroup; Close would wait forever (defer it first in the body)",
			owner.Obj().Name())
	}

	checkWaitReachable(pass, gs, owner, closers, waitOK)
}

// checkDynamicSpawn applies the join discipline to one concrete method a
// `go iface.M()` statement may resolve to. The Add-before-go check is
// skipped: the spawner holds only the interface and cannot name the
// concrete type's WaitGroup field, so registration is the implementation's
// contract (Done in the body, Wait from its own Close/Stop).
func checkDynamicSpawn(pass *ModulePass, gs *ast.GoStmt, dc *FuncInfo, closers map[*types.Named][]*FuncInfo, waitOK map[*types.Named]bool) {
	recv := dc.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	owner := namedOf(recv.Type())
	if owner == nil || len(closers[owner]) == 0 {
		return // implementation is not a lifecycle type; out of scope
	}

	if !hasWaitGroupField(owner) {
		pass.Reportf(gs.Pos(),
			"goroutine resolves to %s but %s has no sync.WaitGroup field; Close cannot join it (add a wg field: Done in the body, Wait in Close)",
			dc.Name(), owner.Obj().Name())
		return
	}

	if !firstWGCall(dc.Pkg, owner, dc.Decl.Body, "Done").IsValid() {
		pass.Reportf(gs.Pos(),
			"goroutine resolves to %s which never calls Done on %s's WaitGroup; Close would wait forever (defer it first in the body)",
			dc.Name(), owner.Obj().Name())
	}
	checkWaitReachable(pass, gs, owner, closers, waitOK)
}

// firstWGCall returns where body first calls method on one of owner's
// WaitGroup fields, or NoPos when it never does.
func firstWGCall(pkg *Package, owner *types.Named, body *ast.BlockStmt, method string) token.Pos {
	first := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !first.IsValid() && isWGFieldCall(pkg, owner, call, method) {
			first = call.Pos()
		}
		return !first.IsValid()
	})
	return first
}

// checkWaitReachable is rule (4): a Wait on owner's WaitGroup must be
// reachable from its Close or Stop. Reported once per type.
func checkWaitReachable(pass *ModulePass, gs *ast.GoStmt, owner *types.Named, closers map[*types.Named][]*FuncInfo, waitOK map[*types.Named]bool) {
	if _, seen := waitOK[owner]; seen {
		return
	}
	for _, closer := range closers[owner] {
		if waitReachable(pass.Module, owner, closer, make(map[*FuncInfo]bool)) {
			waitOK[owner] = true
			return
		}
	}
	waitOK[owner] = false
	pass.Reportf(gs.Pos(),
		"%s spawns goroutines but neither Close nor Stop reaches a Wait on its WaitGroup; workers leak past shutdown",
		owner.Obj().Name())
}

// hasWaitGroupField reports whether the named struct type declares a
// sync.WaitGroup field (embedded or named).
func hasWaitGroupField(n *types.Named) bool {
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isWaitGroup(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isWaitGroup(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "WaitGroup" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

// isWGFieldCall reports whether call is `x.f.<method>(...)` where f is a
// sync.WaitGroup field and x's type is owner.
func isWGFieldCall(pkg *Package, owner *types.Named, call *ast.CallExpr, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || !isWaitGroup(pkg.Info.TypeOf(field)) {
		return false
	}
	return namedOf(pkg.Info.TypeOf(field.X)) == owner
}

// waitReachable walks static calls from start looking for a Wait on one of
// owner's WaitGroup fields.
func waitReachable(m *Module, owner *types.Named, start *FuncInfo, visited map[*FuncInfo]bool) bool {
	if visited[start] {
		return false
	}
	visited[start] = true
	found := false
	ast.Inspect(start.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isWGFieldCall(start.Pkg, owner, call, "Wait") {
			found = true
			return false
		}
		for _, callee := range m.Callees(start.Pkg.Info, call) {
			if waitReachable(m, owner, callee, visited) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
