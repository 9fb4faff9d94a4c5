package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The facts layer is what turns the suite from per-file syntax checks into
// whole-program analyses: a Module indexes every declared function of the
// loaded module, resolves static call targets, and lets analyzers build
// per-function summaries that compose across package boundaries (lockorder
// composes held-lock sets through calls; taint composes unchecked-bound
// parameter sinks). Dynamic dispatch — interface method calls, calls
// through stored function values — resolves through the type-set resolver
// in dyncall.go (Module.DynamicCallees): an interface call fans out to the
// concrete method of every instantiated module type implementing the
// interface, and a function-value call fans out to the named funcs and
// bound methods the assignment-flow pass saw stored into that slot. The
// union over-approximates any one call site, so analyzers that propagate
// "callee might do X" facts stay sound. Two more shared pieces sit beside
// the resolver: the lexical lock-state sweep (locksweep.go) and the index
// of //fcae: directive comments (directive.go).

// FuncInfo pairs a declared function with its body and owning package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Name returns a diagnostic-friendly name: "pkg.Func" or "pkg.Type.Method".
func (fi *FuncInfo) Name() string {
	obj := fi.Obj
	name := obj.Name()
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	if obj.Pkg() != nil {
		name = obj.Pkg().Name() + "." + name
	}
	return name
}

// Module is the shared facts framework: every type-checked package of the
// module plus a function index used to resolve static calls.
type Module struct {
	Pkgs       []*Package
	Fset       *token.FileSet
	Directives *DirectiveIndex

	funcs map[*types.Func]*FuncInfo
	order []*FuncInfo // deterministic iteration order (by position)
	dyn   *dynResolver
}

// BuildModule indexes the module's declared functions. Packages must come
// from one LoadModule call so type objects are shared.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, funcs: make(map[*types.Func]*FuncInfo)}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				m.funcs[obj] = fi
				m.order = append(m.order, fi)
			}
		}
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i].Decl.Pos() < m.order[j].Decl.Pos() })
	m.dyn = buildDynResolver(m)
	m.Directives = buildDirectiveIndex(m)
	return m
}

// Funcs returns every declared function with a body, in file order.
func (m *Module) Funcs() []*FuncInfo { return m.order }

// FuncInfo returns the declaration facts for fn, or nil when fn is not a
// module function with a body (stdlib, interface method, external).
func (m *Module) FuncInfo(fn *types.Func) *FuncInfo { return m.funcs[fn] }

// StaticCallee resolves call to a module function when the call is direct:
// a plain function call, a package-qualified call, or a method call on a
// concrete receiver type. Interface dispatch and calls through function
// values return nil — use DynamicCallees for those.
func (m *Module) StaticCallee(info *types.Info, call *ast.CallExpr) *FuncInfo {
	// Nil for functions outside the module and for interface methods: a
	// Selection through an interface yields an object with no body.
	fn, _ := denoted(info, call.Fun).(*types.Func)
	return m.funcs[fn]
}

// Callees returns every module function call may reach: its static callee
// alone when the call is direct, otherwise the possible dynamic callees.
func (m *Module) Callees(info *types.Info, call *ast.CallExpr) []*FuncInfo {
	if fi := m.StaticCallee(info, call); fi != nil {
		return []*FuncInfo{fi}
	}
	return m.DynamicCallees(info, call)
}

// denoted returns the object an identifier or selector expression names —
// a function, method, field or variable — or nil for any other shape.
func denoted(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[x.Sel] // package-qualified
	}
	return nil
}

// ModulePass carries the whole module through one analyzer.
type ModulePass struct {
	Module *Module

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding anchored at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportCat(pos, "", format, args...)
}

// ReportCat records a finding with a machine-readable category (the
// fcaelint -json "category" field).
func (p *ModulePass) ReportCat(pos token.Pos, category, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Module.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Category: category,
	})
}

// namedOf unwraps pointers to the defined type beneath t, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// nestedFuncLits returns every function literal anywhere inside body,
// including literals nested in other literals.
func nestedFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

// walkParents is ast.Inspect with an ancestor stack: visit receives the
// chain of ancestors (innermost last) for every node; returning false
// skips the node's children.
func walkParents(root ast.Node, visit func(stack []ast.Node, n ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(stack, n) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
