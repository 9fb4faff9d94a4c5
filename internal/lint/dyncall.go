package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// Dynamic-dispatch resolution. StaticCallee deliberately returns nil on
// interface method calls and calls through stored function values, which
// made every interface seam — compaction.Executor, FaultInjector,
// EventListener, the arena-backed Env writers — a blind spot for the
// module analyzers. The resolver here closes that gap in the
// type-set/RTA style:
//
//   - The live-type set is every module-local named type that is
//     instantiated somewhere in the module (composite literal, new(),
//     var declaration), closed transitively over field and element types
//     (a type reachable as a field of a live struct is live: its zero
//     value exists inside the parent).
//   - An interface method call resolves to the concrete method of every
//     live type implementing the interface — the union of possible
//     callees, so a composed summary can only overstate, never miss, a
//     dynamic path. Resolution is restricted to interfaces *declared in
//     the module* (compaction.Env, dispatch.FaultInjector, ...): those
//     are the deliberate seams. Stdlib and anonymous interfaces stay
//     unresolved — a one-method structural signature like `Close() error`
//     or `Flush() error` is satisfied by half the module by accident, and
//     resolving through it floods the analyses with impossible edges
//     (every wal sink "might be" the DB because both have Flush).
//   - A call through a function value resolves via a conservative
//     assignment-flow pass: the named functions and bound methods that
//     flow into each func-typed field, parameter and variable anywhere in
//     the module form that slot's callee set.

// dynResolver holds the module's dynamic-dispatch facts. The live-type
// set and the assignment-flow slots are built once in BuildModule and
// read-only afterwards; a call site is resolved once, under mu, because
// the analyzers run concurrently over a shared Module.
type dynResolver struct {
	m *Module

	// modulePkg marks the type-checker packages belonging to the module.
	modulePkg map[*types.Package]bool

	// instantiated is the live-type set in declaration order.
	instantiated []*types.Named

	// slots maps each func-typed object (struct field, parameter,
	// variable) to the named funcs and bound methods assigned into it
	// anywhere in the module, in declaration order.
	slots map[types.Object][]*FuncInfo

	mu         sync.Mutex
	ifaceCache map[*types.Func][]*FuncInfo
	callCache  map[*ast.CallExpr][]*FuncInfo
}

// DynamicCallees resolves an interface method call or a call through a
// function value to the set of module functions it may reach, sorted by
// declaration position. Direct calls (StaticCallee territory) and calls
// whose targets cannot be determined resolve to nil.
func (m *Module) DynamicCallees(info *types.Info, call *ast.CallExpr) []*FuncInfo {
	r := m.dyn
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.callCache[call]
	if !ok {
		res = r.resolve(info, call)
		r.callCache[call] = res
	}
	return res
}

// resolve classifies the call shape and dispatches to the interface or
// function-value resolver.
func (r *dynResolver) resolve(info *types.Info, call *ast.CallExpr) []*FuncInfo {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				fn, ok := sel.Obj().(*types.Func)
				if ok && types.IsInterface(sel.Recv()) {
					recvNamed := namedOf(sel.Recv())
					if recvNamed == nil || !r.modulePkg[recvNamed.Obj().Pkg()] {
						return nil // stdlib or anonymous interface: not a module seam
					}
					return r.implsOfLocked(fn)
				}
			case types.FieldVal:
				return r.slots[sel.Obj()]
			}
			return nil
		}
		// Package-qualified call through a func-typed package variable.
		if obj, ok := info.Uses[fun.Sel].(*types.Var); ok {
			return r.slots[obj]
		}
	case *ast.Ident:
		// Call through a func-typed local, parameter or package variable.
		if obj, ok := info.Uses[fun].(*types.Var); ok {
			return r.slots[obj]
		}
	}
	return nil
}

// implsOfLocked returns the concrete methods of every live type implementing
// the interface that declares method, memoized per interface method.
func (r *dynResolver) implsOfLocked(method *types.Func) []*FuncInfo {
	if out, ok := r.ifaceCache[method]; ok {
		return out
	}
	recv := method.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncInfo
	seen := make(map[*FuncInfo]bool)
	for _, named := range r.instantiated {
		// The pointer method set subsumes the value one, so checking *T
		// covers values and pointers stored in the interface alike — the
		// union can only grow, which is the conservative direction.
		if !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), method.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fi := r.m.funcs[fn]; fi != nil && !seen[fi] {
			seen[fi] = true
			out = append(out, fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	r.ifaceCache[method] = out
	return out
}

// buildDynResolver walks the whole module once, collecting the live-type
// set and the function-value assignment flows.
func buildDynResolver(m *Module) *dynResolver {
	r := &dynResolver{
		m:          m,
		slots:      make(map[types.Object][]*FuncInfo),
		ifaceCache: make(map[*types.Func][]*FuncInfo),
		callCache:  make(map[*ast.CallExpr][]*FuncInfo),
	}

	instSet := make(map[*types.Named]bool)
	var queue []*types.Named
	modulePkgs := make(map[*types.Package]bool, len(m.Pkgs))
	for _, pkg := range m.Pkgs {
		modulePkgs[pkg.Types] = true
	}
	r.modulePkg = modulePkgs
	mark := func(t types.Type) {
		n := namedOf(t)
		if n == nil || instSet[n] {
			return
		}
		if !modulePkgs[n.Obj().Pkg()] {
			return // external type: its methods have no bodies here anyway
		}
		instSet[n] = true
		queue = append(queue, n)
	}

	slotSets := make(map[types.Object]map[*FuncInfo]bool)
	addFlow := func(pkg *Package, target types.Object, rhs ast.Expr) {
		if target == nil || rhs == nil {
			return
		}
		if _, ok := target.Type().Underlying().(*types.Signature); !ok {
			return
		}
		fi := r.funcValue(pkg, rhs)
		if fi == nil {
			return
		}
		if slotSets[target] == nil {
			slotSets[target] = make(map[*FuncInfo]bool)
		}
		slotSets[target][fi] = true
	}

	for _, pkg := range m.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					mark(t)
					if st, ok := baseStruct(t); ok {
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									addFlow(pkg, info.Uses[id], kv.Value)
								}
								continue
							}
							if i < st.NumFields() {
								addFlow(pkg, st.Field(i), elt)
							}
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						mark(info.TypeOf(n.Type))
					}
					for i, name := range n.Names {
						if i < len(n.Values) {
							addFlow(pkg, info.Defs[name], n.Values[i])
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							addFlow(pkg, lvalueObj(info, n.Lhs[i]), n.Rhs[i])
						}
					}
				case *ast.CallExpr:
					if builtinName(info, n) == "new" && len(n.Args) == 1 {
						mark(info.TypeOf(n.Args[0]))
					}
					if callee := m.StaticCallee(info, n); callee != nil {
						sig := callee.Obj.Type().(*types.Signature)
						for i, arg := range n.Args {
							if i < sig.Params().Len() {
								addFlow(pkg, sig.Params().At(i), arg)
							}
						}
					}
				}
				return true
			})
		}
	}

	// Close the live set over field and element types: the zero value of
	// a field exists inside every live parent, so its methods are
	// reachable through interfaces holding it.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		switch u := n.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				mark(u.Field(i).Type())
			}
		case *types.Slice:
			mark(u.Elem())
		case *types.Array:
			mark(u.Elem())
		case *types.Map:
			mark(u.Elem())
		case *types.Chan:
			mark(u.Elem())
		case *types.Pointer:
			mark(u.Elem())
		}
	}

	for n := range instSet {
		r.instantiated = append(r.instantiated, n)
	}
	sort.Slice(r.instantiated, func(i, j int) bool {
		return r.instantiated[i].Obj().Pos() < r.instantiated[j].Obj().Pos()
	})
	for obj, set := range slotSets {
		funcs := make([]*FuncInfo, 0, len(set))
		for fi := range set {
			funcs = append(funcs, fi)
		}
		sort.Slice(funcs, func(i, j int) bool { return funcs[i].Decl.Pos() < funcs[j].Decl.Pos() })
		r.slots[obj] = funcs
	}
	return r
}

// funcValue resolves an expression to the module function it denotes — a
// named function or a bound/expression method — or nil. Function literals
// are deliberately not tracked: they have no FuncInfo, and the summaries
// they would contribute are already collected from their enclosing body.
func (r *dynResolver) funcValue(pkg *Package, e ast.Expr) *FuncInfo {
	fn, _ := denoted(pkg.Info, e).(*types.Func)
	return r.m.funcs[fn]
}

// lvalueObj resolves an assignment target to its object: a plain
// identifier or a field selector. Index expressions and other shapes
// return nil (untracked).
func lvalueObj(info *types.Info, lhs ast.Expr) types.Object {
	if obj := assignTarget(info, lhs); obj != nil {
		return obj
	}
	return denoted(info, lhs)
}

// baseStruct returns the struct type beneath t, unwrapping pointers.
func baseStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
