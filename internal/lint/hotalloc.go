package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc guards the paper's central performance claim: the merge kernel
// is cycle-accounted (§VI models throughput per pipeline stage), and the
// model only holds if the loop bodies behind the //fcae:cycle-accounting
// functions do no per-iteration heap work — one stray make or growing
// append inside the block-switch path shows up directly as lost device
// bandwidth. The analyzer marks the directive-carrying functions hot,
// propagates hotness through the static call graph (a callee invoked from
// a hot loop is hot in its entirety), and flags the allocation shapes Go
// hides in plain syntax inside hot loops:
//
//   - make() of slices, maps or channels            (category "make")
//   - growing append — onto a fresh/loop-local base (category "append")
//     (amortized appends onto reused fields or x[:0] bases pass)
//   - string concatenation                          (category "concat")
//   - interface boxing at call sites                (category "box")
//     (skipped inside return statements: error exits are cold)
//   - function literals, which escape as closures   (category "closure")
//
// A site that is deliberate — a grow-on-demand scratch buffer, a bounded
// debug path — is suppressed by `//fcae:alloc-ok <reason>` on the same
// line or the line above; the reason is mandatory so the exemption
// carries its justification in the diff, and a directive that ends up
// suppressing nothing is reported by the directive index.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "no per-iteration allocation in //fcae:cycle-accounting hot loops: flags " +
		"make, growing append, string concat, interface boxing and closures reached " +
		"from hot code; //fcae:alloc-ok <reason> suppresses a deliberate site",
	Run: runHotAlloc,
}

const allocOKDirective = "//fcae:alloc-ok"

// Hotness lattice: a function is hot when reachable from a directive
// function (its loops are the concern), loop-hot when reachable from
// inside a hot loop (its entire body executes per iteration).
const (
	haCold = iota
	haHot
	haLoopHot
)

// haSite is one candidate allocation site.
type haSite struct {
	pos      token.Pos
	category string
	what     string
	inLoop   bool
}

// haCall is one static call with loop context.
type haCall struct {
	callee *FuncInfo
	inLoop bool
}

type haBody struct {
	fi    *FuncInfo
	sites []haSite
	calls []haCall
}

func runHotAlloc(pass *ModulePass) {
	m := pass.Module

	bodies := make(map[*FuncInfo]*haBody)
	for _, fi := range m.Funcs() {
		bodies[fi] = collectHotAllocBody(m, fi)
	}

	// Seed: the cycle-accounted functions themselves.
	hotness := make(map[*FuncInfo]int)
	for _, fi := range m.Funcs() {
		if cycleAccounted(m, fi.Decl) {
			hotness[fi] = haHot
		}
	}

	// Propagate through the static call graph to fixpoint: a call from a
	// hot loop (or from anywhere in a loop-hot function) makes the callee
	// loop-hot; a straight-line call from hot code makes the callee hot.
	for changed := true; changed; {
		changed = false
		for _, fi := range m.Funcs() {
			h := hotness[fi]
			if h == haCold {
				continue
			}
			for _, c := range bodies[fi].calls {
				want := haHot
				if h == haLoopHot || c.inLoop {
					want = haLoopHot
				}
				if hotness[c.callee] < want {
					hotness[c.callee] = want
					changed = true
				}
			}
		}
	}

	for _, fi := range m.Funcs() {
		h := hotness[fi]
		if h == haCold {
			continue
		}
		for _, s := range bodies[fi].sites {
			if h == haHot && !s.inLoop {
				continue
			}
			if ok := m.Directives.AtLine("alloc-ok", s.pos); ok != nil {
				ok.Use()
				continue
			}
			where := "hot loop"
			if h == haLoopHot && !s.inLoop {
				where = "loop-hot function"
			}
			pass.ReportCat(s.pos, s.category,
				"%s in %s of cycle-accounted %s allocates per iteration; hoist it to reusable scratch or mark %s <reason>",
				s.what, where, fi.Name(), allocOKDirective)
		}
	}
}

// collectHotAllocBody gathers allocation sites and static calls with their
// loop context. Function literals are themselves closure sites; their
// bodies are not descended (the closure allocation dominates).
func collectHotAllocBody(m *Module, fi *FuncInfo) *haBody {
	info := fi.Pkg.Info
	b := &haBody{fi: fi}
	walkParents(fi.Decl.Body, func(stack []ast.Node, n ast.Node) bool {
		inLoop := false
		inReturn := false
		for _, a := range stack {
			switch a.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				inLoop = true
			case *ast.ReturnStmt:
				inReturn = true
			}
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			b.sites = append(b.sites, haSite{n.Pos(), "closure", "function literal (escaping closure)", inLoop})
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n.X)) && isStringType(info.TypeOf(n.Y)) {
				b.sites = append(b.sites, haSite{n.Pos(), "concat", "string concatenation", inLoop})
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				b.sites = append(b.sites, haSite{n.Pos(), "concat", "string concatenation", inLoop})
			}
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "make":
				b.sites = append(b.sites, haSite{n.Pos(), "make", "make", inLoop})
				return true
			case "append":
				if len(n.Args) > 1 && isFreshAppendBase(info, n.Args[0], stack) {
					b.sites = append(b.sites, haSite{n.Pos(), "append", "append onto a fresh base", inLoop})
				}
				return true
			case "":
			default:
				return true // other builtins never box or allocate here
			}
			// Through an interface or a function value inside a hot region,
			// every resolved implementation inherits the hotness, so its
			// alloc sites get flagged too.
			for _, callee := range m.Callees(info, n) {
				b.calls = append(b.calls, haCall{callee, inLoop})
			}
			if !inReturn {
				if boxed := boxedArg(info, n); boxed != "" {
					b.sites = append(b.sites, haSite{n.Pos(), "box", "interface boxing of " + boxed, inLoop})
				}
			}
		}
		return true
	})
	return b
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isFreshAppendBase reports whether the append base can't be amortizing:
// a nil conversion ([]byte(nil)), an empty composite literal, or a local
// declared inside an enclosing loop. Appends onto struct fields, x[:0]
// slices and outer-scope locals are assumed to reuse capacity.
func isFreshAppendBase(info *types.Info, base ast.Expr, stack []ast.Node) bool {
	switch e := ast.Unparen(base).(type) {
	case *ast.CallExpr:
		// A conversion like []byte(nil): one argument, Fun is a type.
		if len(e.Args) == 1 && builtinName(info, e) == "" {
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
				if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
					return true
				}
			}
		}
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return false
		}
		// Declared inside one of the enclosing loops of this append?
		for _, a := range stack {
			switch a.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if a.Pos() <= obj.Pos() && obj.Pos() < a.End() {
					return true
				}
			}
		}
	}
	return false
}

// boxedArg returns a description of the first argument boxed into an
// interface parameter, or "". Constants and untyped nil are free;
// f(xs...) forwards an existing slice.
func boxedArg(info *types.Info, call *ast.CallExpr) string {
	if call.Ellipsis.IsValid() {
		return ""
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return "" // builtin or conversion
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
			continue // constant or nil: no runtime boxing
		}
		return at.String() + " argument"
	}
	return ""
}
