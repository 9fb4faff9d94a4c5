package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// Taint tracks integers decoded from untrusted bytes — varint results and
// fixed-width binary reads, the values an SSTable block or WAL record
// hands us straight from disk — and reports slice or index expressions
// (and make() sizes, which a hostile length turns into a panic or an
// allocation bomb) whose bounds derive from such a value without a prior
// validation check. This is the hostile-uvarint bug class both fuzz-found block
// decoder panics belonged to, promoted to a compile-time finding.
//
// Sources: the first result of encoding/binary.Uvarint/Varint (the byte
// count is inherently bounded and stays clean) and the results of
// binary.{Little,Big}Endian.Uint16/32/64. Taint propagates through
// arithmetic, conversions and assignment, lexically in source order, and
// is cleared by any comparison mentioning the variable (the decoder
// idiom `if n > uint64(len(buf)) { return err }`) or by a clean
// reassignment. Tracking covers local integer variables only — values
// stored into struct fields or slices leave the analysis.
//
// The facts framework makes it interprocedural: each function gets a
// summary of (a) parameters it uses as unchecked bounds, directly or by
// forwarding to another sink parameter, and (b) whether it returns a
// still-tainted value. Summaries reach a fixpoint over the call graph,
// so passing a freshly decoded length to a helper that indexes with it
// is reported at the call site even across packages.
var Taint = &Analyzer{
	Name: "taint",
	Doc: "slice/index bounds derived from untrusted decoded bytes require a " +
		"prior validation check, including through helper calls",
	Run: runTaint,
}

const (
	actSanitize = iota // comparisons clear state first on position ties
	actAssign
	actUse
	actCall
	actReturn
)

type taintAction struct {
	pos  token.Pos
	kind int

	lhs   []types.Object // assign targets (nil entries for untracked lhs)
	rhs   []ast.Expr     // assign sources, pairwise with lhs
	multi *ast.CallExpr  // assign from one multi-value call

	objs []types.Object // sanitize: cleared objects

	expr ast.Expr // use: the bound expression
	what string   // use: "index" or "slice bound"

	call *ast.CallExpr // call / return payload
	rets []ast.Expr
}

// taintSummary is a function's contribution to callers.
type taintSummary struct {
	sinkParams     map[int]bool // parameter indices used as unchecked bounds
	returnsTainted bool
}

type taintBody struct {
	m       *Module
	fi      *FuncInfo
	pkg     *Package
	name    string
	params  []types.Object
	actions []taintAction
}

func runTaint(pass *ModulePass) {
	m := pass.Module
	var bodies []*taintBody
	var lits []*taintBody
	for _, fi := range m.Funcs() {
		b := collectTaintBody(m, fi.Pkg, fi.Decl.Body, fi)
		bodies = append(bodies, b)
		for _, lit := range nestedFuncLits(fi.Decl.Body) {
			lb := collectTaintBody(m, fi.Pkg, lit.Body, nil)
			lb.name = "function literal in " + fi.Name()
			lits = append(lits, lb)
		}
	}

	// Fixpoint over summaries: sink parameters and tainted returns only
	// ever get added, so iteration terminates.
	sums := make(map[*FuncInfo]*taintSummary, len(bodies))
	for _, b := range bodies {
		sums[b.fi] = &taintSummary{sinkParams: make(map[int]bool)}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range bodies {
			s := sums[b.fi]
			// Does a still-tainted value reach a return?
			r := sweepTaint(b, sums, nil, true, nil)
			if r && !s.returnsTainted {
				s.returnsTainted = true
				changed = true
			}
			// Which parameters reach an unchecked bound?
			for i, p := range b.params {
				if s.sinkParams[i] || p == nil || !isIntegerObj(p) {
					continue
				}
				hit := false
				sweepTaint(b, sums, map[types.Object]bool{p: true}, false,
					func(token.Pos, string) { hit = true })
				if hit {
					s.sinkParams[i] = true
					changed = true
				}
			}
		}
	}

	// Reporting pass: sources on, parameters clean.
	seen := make(map[token.Pos]bool)
	report := func(pos token.Pos, msg string) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, "%s", msg)
		}
	}
	for _, b := range append(bodies, lits...) {
		sweepTaint(b, sums, nil, true, report)
	}
}

// collectTaintBody gathers the body's taint-relevant actions in lexical
// order. Nested function literals are separate bodies.
func collectTaintBody(m *Module, pkg *Package, body *ast.BlockStmt, fi *FuncInfo) *taintBody {
	b := &taintBody{m: m, fi: fi, pkg: pkg}
	if fi != nil {
		b.name = fi.Name()
		sig := fi.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			b.params = append(b.params, sig.Params().At(i))
		}
	}
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			act := taintAction{pos: n.Pos(), kind: actAssign}
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					act.multi = call
				}
			}
			for i, lhs := range n.Lhs {
				act.lhs = append(act.lhs, assignTarget(info, lhs))
				if act.multi == nil && i < len(n.Rhs) {
					act.rhs = append(act.rhs, n.Rhs[i])
				}
			}
			b.actions = append(b.actions, act)
		case *ast.ValueSpec:
			act := taintAction{pos: n.Pos(), kind: actAssign}
			for i, name := range n.Names {
				act.lhs = append(act.lhs, info.Defs[name])
				if i < len(n.Values) {
					act.rhs = append(act.rhs, n.Values[i])
				}
			}
			if len(n.Values) == 1 && len(n.Names) > 1 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok {
					act.multi = call
					act.rhs = nil
				}
			}
			b.actions = append(b.actions, act)
		case *ast.BinaryExpr:
			if isComparison(n.Op) {
				act := taintAction{pos: n.Pos(), kind: actSanitize}
				for _, side := range []ast.Expr{n.X, n.Y} {
					ast.Inspect(side, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok {
							if obj := info.Uses[id]; obj != nil {
								act.objs = append(act.objs, obj)
							}
						}
						return true
					})
				}
				b.actions = append(b.actions, act)
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[n.X]; ok && !tv.IsType() {
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					b.actions = append(b.actions, taintAction{pos: n.Index.Pos(), kind: actUse, expr: n.Index, what: "index"})
				}
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil {
					b.actions = append(b.actions, taintAction{pos: bound.Pos(), kind: actUse, expr: bound, what: "slice bound"})
				}
			}
		case *ast.CallExpr:
			// A decoded length handed to make() sizes an allocation: a
			// hostile value either panics (negative after conversion) or
			// balloons memory. Treat the size/capacity arguments as bound
			// uses requiring the same prior check as an index.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if bi, ok := info.Uses[id].(*types.Builtin); ok && bi.Name() == "make" {
					for _, arg := range n.Args[1:] {
						b.actions = append(b.actions, taintAction{pos: arg.Pos(), kind: actUse, expr: arg, what: "make size"})
					}
				}
			}
			b.actions = append(b.actions, taintAction{pos: n.Pos(), kind: actCall, call: n})
		case *ast.ReturnStmt:
			b.actions = append(b.actions, taintAction{pos: n.Pos(), kind: actReturn, rets: n.Results})
		}
		return true
	})
	sort.SliceStable(b.actions, func(i, j int) bool {
		if b.actions[i].pos != b.actions[j].pos {
			return b.actions[i].pos < b.actions[j].pos
		}
		return b.actions[i].kind < b.actions[j].kind
	})
	return b
}

// sweepTaint runs the lexical state machine over a body. init seeds the
// tainted set (parameter-sink mode); sources enables the decoded-bytes
// sources (reporting and return-taint mode). report, when non-nil,
// receives each unchecked tainted bound. Returns whether a tainted value
// reached a return statement.
func sweepTaint(b *taintBody, sums map[*FuncInfo]*taintSummary, init map[types.Object]bool, sources bool, report func(token.Pos, string)) bool {
	state := make(map[types.Object]bool, len(init))
	for o := range init {
		state[o] = true
	}
	m := b.m
	tainted := func(e ast.Expr) bool { return taintedExpr(b.pkg, m, sums, state, e, sources) }
	returnsTainted := false
	for i := range b.actions {
		act := &b.actions[i]
		switch act.kind {
		case actSanitize:
			for _, o := range act.objs {
				delete(state, o)
			}
		case actAssign:
			if act.multi != nil {
				taintMultiAssign(b, sums, state, act, sources)
				continue
			}
			for i, lhs := range act.lhs {
				if lhs == nil {
					continue
				}
				if i < len(act.rhs) && tainted(act.rhs[i]) {
					state[lhs] = true
				} else {
					delete(state, lhs)
				}
			}
		case actUse:
			if report != nil && tainted(act.expr) {
				report(act.pos, "untrusted decoded value used as "+act.what+" without a prior bounds check")
			}
		case actCall:
			if report == nil {
				continue
			}
			callee := m.StaticCallee(b.pkg.Info, act.call)
			if callee == nil {
				// Interface dispatch: the argument may land in any resolved
				// implementation's sink parameter.
				for _, dc := range m.DynamicCallees(b.pkg.Info, act.call) {
					s := sums[dc]
					if s == nil {
						continue
					}
					for i, arg := range act.call.Args {
						if s.sinkParams[i] && tainted(arg) {
							report(arg.Pos(), "untrusted decoded value may reach parameter "+
								paramName(dc, i)+" of "+dc.Name()+" via dynamic dispatch, which uses it as an unchecked bound")
						}
					}
				}
				continue
			}
			s := sums[callee]
			if s == nil {
				continue
			}
			for i, arg := range act.call.Args {
				if s.sinkParams[i] && tainted(arg) {
					report(arg.Pos(), "untrusted decoded value passed to parameter "+
						paramName(callee, i)+" of "+callee.Name()+", which uses it as an unchecked bound")
				}
			}
		case actReturn:
			for _, r := range act.rets {
				if tainted(r) {
					returnsTainted = true
				}
			}
		}
	}
	return returnsTainted
}

// taintMultiAssign handles `a, b := call(...)`.
func taintMultiAssign(b *taintBody, sums map[*FuncInfo]*taintSummary, state map[types.Object]bool, act *taintAction, sources bool) {
	taintedIdx := func(i int) bool {
		if !sources {
			return false
		}
		if fn := binaryFunc(b.pkg.Info, act.multi); fn != nil {
			// Uvarint/Varint: first result is the decoded value, second
			// is the byte count, inherently bounded by len(input).
			if fn.Name() == "Uvarint" || fn.Name() == "Varint" {
				return i == 0
			}
		}
		for _, callee := range b.m.Callees(b.pkg.Info, act.multi) {
			if s := sums[callee]; s != nil && s.returnsTainted {
				lhs := act.lhs[i]
				return lhs != nil && isIntegerObj(lhs)
			}
		}
		return false
	}
	for i, lhs := range act.lhs {
		if lhs == nil {
			continue
		}
		if taintedIdx(i) {
			state[lhs] = true
		} else {
			delete(state, lhs)
		}
	}
}

// taintedExpr evaluates whether e carries taint under the current state.
func taintedExpr(pkg *Package, m *Module, sums map[*FuncInfo]*taintSummary, state map[types.Object]bool, e ast.Expr, sources bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return state[pkg.Info.Uses[x]]
	case *ast.ParenExpr:
		return taintedExpr(pkg, m, sums, state, x.X, sources)
	case *ast.UnaryExpr:
		return taintedExpr(pkg, m, sums, state, x.X, sources)
	case *ast.BinaryExpr:
		if isComparison(x.Op) || x.Op == token.LAND || x.Op == token.LOR {
			return false
		}
		return taintedExpr(pkg, m, sums, state, x.X, sources) ||
			taintedExpr(pkg, m, sums, state, x.Y, sources)
	case *ast.CallExpr:
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return taintedExpr(pkg, m, sums, state, x.Args[0], sources)
		}
		if !sources {
			return false
		}
		if fn := binaryFunc(pkg.Info, x); fn != nil {
			switch fn.Name() {
			case "Uint16", "Uint32", "Uint64":
				return true
			}
		}
		for _, callee := range m.Callees(pkg.Info, x) {
			if s := sums[callee]; s != nil && s.returnsTainted {
				return true
			}
		}
		return false
	}
	return false
}

// binaryFunc returns the encoding/binary function or method called, if any.
func binaryFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, ok := denoted(info, call.Fun).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return nil
	}
	return fn
}

// assignTarget resolves an assignment lhs to a tracked local object, or
// nil for blank, field, and element targets (which leave the analysis).
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return identObj(info, id)
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func isIntegerObj(o types.Object) bool {
	t := o.Type()
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func paramName(fi *FuncInfo, i int) string {
	sig := fi.Obj.Type().(*types.Signature)
	if i < sig.Params().Len() {
		if n := sig.Params().At(i).Name(); n != "" {
			return n
		}
	}
	return "#" + strconv.Itoa(i)
}
