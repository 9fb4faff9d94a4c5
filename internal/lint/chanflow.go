package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ChanFlow enforces the channel hand-off discipline of the module's
// shutdown and request channels (the dispatch scheduler's stop, the
// server's and the client's stop, in-flight and reply channels): a
// mis-owned close or a send racing a shutdown wedges or panics its
// owner. Four rules, each a class the compiler cannot check:
//
//  1. Single-owner close. The owner of a channel-typed struct field or
//     package-level channel is the function that make()s it; only the
//     owner — or a function whose doc comment declares
//     `//fcae:chan-owner <pkg.Type.field>` — may close it. Closing a
//     channel you did not create is how double-close and
//     send-on-closed panics are born.
//
//  2. Shutdown-aware worker sends. A send in a for-loop on a channel
//     field of a type that also carries a stop-style `chan struct{}`
//     field must sit in a `select` with a receive on a `chan struct{}`
//     (the stop/ctx case) or a `default` clause; a bare send keeps the
//     worker alive after Close and races send-after-close.
//
//  3. Directional fields. A bidirectional `chan T` field that the whole
//     module only ever sends to (or only receives from) should declare
//     the direction (`chan<- T` / `<-chan T`) so the compiler enforces
//     the hand-off. Fields that escape (aliased, passed along) are
//     skipped.
//
//  4. No blocking channel ops under a mutex. A send, blocking receive,
//     or default-less select while a sync.Mutex/RWMutex is held stalls
//     every other path into that lock — interprocedural through the
//     facts call graph via per-function summaries, the same way
//     lockorder composes held-lock sets (a call to a function that
//     blocks on a channel is reported at the call site when a lock is
//     held there).
var ChanFlow = &Analyzer{
	Name: "chanflow",
	Doc: "channel ownership/shutdown discipline: owner-only close (//fcae:chan-owner " +
		"declares extra holders), worker-loop sends select on stop, one-sided fields " +
		"declare a direction, no blocking channel ops while a mutex is held",
	Run: runChanFlow,
}

const chanOwnerDirective = "//fcae:chan-owner"

// chanDecl is one tracked channel declaration: a channel-typed struct
// field or a package-level channel variable.
type chanDecl struct {
	key   string // pkg.Type.field or pkg.name
	pos   token.Pos
	dir   types.ChanDir
	field bool
	// structHasStop marks fields of a struct that also carries a
	// stop-style chan struct{} field (rule 2's scope).
	structHasStop bool

	owners map[*FuncInfo]bool // functions that make() this channel
	sends  int                // includes close (send-side use)
	recvs  int
	escape bool // aliased/passed along: direction inference is off
	closes []chanClose
}

type chanClose struct {
	fn  *FuncInfo
	pos token.Pos
}

func runChanFlow(pass *ModulePass) {
	m := pass.Module
	decls := collectChanDecls(m)

	// Phase 1: classify every use of a tracked channel, resolve owners,
	// and check rule 2 (whose evidence — the enclosing select — is local).
	for _, fi := range m.Funcs() {
		collectChanUses(pass, decls, fi)
	}

	// Rule 1: only the making function or a declared holder may close.
	holders := collectChanOwnerDirectives(pass, decls)
	for _, d := range sortedChanDecls(decls) {
		for _, cl := range d.closes {
			if len(d.owners) == 0 || d.owners[cl.fn] {
				continue
			}
			if grant := holders[d.key][cl.fn]; grant != nil {
				grant.Use()
				continue
			}
			pass.ReportCat(cl.pos, "close-owner",
				"%s closes %s but %s makes it; only the owner (or a %s %s holder) may close",
				cl.fn.Name(), d.key, ownerNames(d.owners), chanOwnerDirective, d.key)
		}
	}

	// Rule 3: one-sided bidirectional fields should declare a direction.
	for _, d := range sortedChanDecls(decls) {
		if d.dir != types.SendRecv || d.escape || !d.field {
			continue
		}
		switch {
		case d.sends > 0 && d.recvs == 0:
			pass.ReportCat(d.pos, "direction",
				"%s is only ever sent to or closed; declare it send-only (chan<-) so the compiler enforces the hand-off", d.key)
		case d.recvs > 0 && d.sends == 0:
			pass.ReportCat(d.pos, "direction",
				"%s is only ever received from; declare it receive-only (<-chan) so the compiler enforces the hand-off", d.key)
		}
	}

	// Rule 4: blocking channel ops under a held mutex, interprocedural.
	runChanUnderLock(pass)
}

// collectChanDecls indexes channel-typed struct fields and package-level
// channel variables of every module package.
func collectChanDecls(m *Module) map[types.Object]*chanDecl {
	out := make(map[types.Object]*chanDecl)
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				hasStop := false
				for i := 0; i < st.NumFields(); i++ {
					if isStopChanField(st.Field(i)) {
						hasStop = true
						break
					}
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					ch, ok := f.Type().Underlying().(*types.Chan)
					if !ok {
						continue
					}
					out[f] = &chanDecl{
						key:           pkg.Types.Name() + "." + named.Obj().Name() + "." + f.Name(),
						pos:           f.Pos(),
						dir:           ch.Dir(),
						field:         true,
						structHasStop: hasStop,
						owners:        make(map[*FuncInfo]bool),
					}
				}
			case *types.Var:
				ch, ok := obj.Type().Underlying().(*types.Chan)
				if !ok {
					continue
				}
				out[obj] = &chanDecl{
					key:    pkg.Types.Name() + "." + obj.Name(),
					pos:    obj.Pos(),
					dir:    ch.Dir(),
					owners: make(map[*FuncInfo]bool),
				}
			}
		}
	}
	return out
}

// isStopChanField reports whether f is a shutdown-signal field: a
// chan struct{} named like a stop channel.
func isStopChanField(f *types.Var) bool {
	switch f.Name() {
	case "stop", "quit", "done", "closing", "shutdown":
	default:
		return false
	}
	ch, ok := f.Type().Underlying().(*types.Chan)
	return ok && isEmptyStruct(ch.Elem())
}

func isEmptyStruct(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// collectChanUses walks one declared function (function literals
// included, attributed to the declaration) classifying each reference to
// a tracked channel and checking rule 2 in place.
func collectChanUses(pass *ModulePass, decls map[types.Object]*chanDecl, fi *FuncInfo) {
	info := fi.Pkg.Info
	walkParents(fi.Decl.Body, func(stack []ast.Node, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		d := decls[obj]
		if d == nil {
			return true
		}
		// The channel expression is the ident itself (package var,
		// composite-literal key) or the enclosing selector x.f.
		expr := ast.Node(id)
		top := len(stack) - 1
		if top >= 0 {
			if sel, ok := stack[top].(*ast.SelectorExpr); ok && sel.Sel == id {
				expr = sel
				top--
			}
		}
		for top >= 0 {
			if p, ok := stack[top].(*ast.ParenExpr); ok && p.X == expr {
				expr = p
				top--
				continue
			}
			break
		}
		if top < 0 {
			return true
		}
		switch parent := stack[top].(type) {
		case *ast.SendStmt:
			if parent.Chan == expr {
				d.sends++
				checkStopSelect(pass, info, d, stack[:top], parent)
			} else {
				d.escape = true // the channel value itself is being sent
			}
		case *ast.UnaryExpr:
			if parent.Op == token.ARROW && parent.X == expr {
				d.recvs++
			} else {
				d.escape = true
			}
		case *ast.RangeStmt:
			if parent.X == expr {
				d.recvs++
			} else {
				d.escape = true
			}
		case *ast.CallExpr:
			switch builtinName(info, parent) {
			case "close":
				d.sends++
				d.closes = append(d.closes, chanClose{fn: fi, pos: parent.Pos()})
			case "len", "cap":
				// Neutral: legal on any direction, says nothing about use.
			default:
				d.escape = true // passed to a function: aliases the channel
			}
		case *ast.AssignStmt:
			if assignedMake(info, parent, expr) {
				d.owners[fi] = true
			} else if exprInList(parent.Lhs, expr) {
				d.escape = true // overwritten with something other than make
			} else {
				d.escape = true // channel value copied out
			}
		case *ast.KeyValueExpr:
			if parent.Key == ast.Node(id) {
				if isMakeCall(info, parent.Value) {
					d.owners[fi] = true
				} else {
					d.escape = true
				}
			}
		case *ast.BinaryExpr:
			// nil comparison: neutral for direction purposes.
		case *ast.ValueSpec, *ast.Field:
			// The declaration itself.
		default:
			d.escape = true
		}
		return true
	})
}

// checkStopSelect implements rule 2 for one send: inside a for-loop, on a
// field of a stop-carrying type, the send must be a select case whose
// select also has a default or a receive on a chan struct{}. stack holds
// the send's ancestors, innermost (the CommClause, when there is one) last.
func checkStopSelect(pass *ModulePass, info *types.Info, d *chanDecl, stack []ast.Node, send *ast.SendStmt) {
	if !d.field || !d.structHasStop {
		return
	}
	inLoop := false
	for _, a := range stack {
		switch a.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop = true
		}
	}
	if !inLoop {
		return
	}
	// Is the send the comm of a select clause? The clause's ancestors are
	// [..., SelectStmt, BlockStmt (select body), CommClause].
	if len(stack) >= 3 {
		if cc, ok := stack[len(stack)-1].(*ast.CommClause); ok && cc.Comm == ast.Node(send) {
			if sel, ok := stack[len(stack)-3].(*ast.SelectStmt); ok && selectHasEscapeCase(info, sel) {
				return
			}
		}
	}
	pass.ReportCat(send.Pos(), "send-stop",
		"worker-loop send on %s must be a select case alongside a stop receive or default; a bare send races send-after-close on shutdown", d.key)
}

// selectHasEscapeCase reports whether sel can bail out of a blocked send:
// a default clause, or a receive case on a chan struct{} (stop or
// ctx.Done style).
func selectHasEscapeCase(info *types.Info, sel *ast.SelectStmt) bool {
	for _, s := range sel.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		var recvX ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recvX = u.X
			}
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				if u, ok := ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recvX = u.X
				}
			}
		}
		if recvX == nil {
			continue
		}
		if ch, ok := info.TypeOf(recvX).Underlying().(*types.Chan); ok && isEmptyStruct(ch.Elem()) {
			return true
		}
	}
	return false
}

// builtinName returns the name of the builtin being called, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func isMakeCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && builtinName(info, call) == "make"
}

// assignedMake reports whether expr appears on the lhs of stmt with a
// make() call as its pairwise rhs.
func assignedMake(info *types.Info, stmt *ast.AssignStmt, expr ast.Node) bool {
	for i, lhs := range stmt.Lhs {
		if ast.Node(lhs) == expr && i < len(stmt.Rhs) && len(stmt.Lhs) == len(stmt.Rhs) {
			return isMakeCall(info, stmt.Rhs[i])
		}
	}
	return false
}

func exprInList(list []ast.Expr, expr ast.Node) bool {
	for _, e := range list {
		if ast.Node(e) == expr {
			return true
		}
	}
	return false
}

// collectChanOwnerDirectives reads //fcae:chan-owner <key> into key ->
// holder -> grant, reporting the ones that name no tracked channel.
func collectChanOwnerDirectives(pass *ModulePass, decls map[types.Object]*chanDecl) map[string]map[*FuncInfo]*Directive {
	known := make(map[string]bool, len(decls))
	for _, d := range decls {
		known[d.key] = true
	}
	holders := make(map[string]map[*FuncInfo]*Directive)
	for _, d := range pass.Module.Directives.All("chan-owner") {
		if !known[d.Args] {
			d.Use()
			pass.ReportCat(d.Pos, "directive", "%s directive names unknown channel %q", d, d.Args)
			continue
		}
		if holders[d.Args] == nil {
			holders[d.Args] = make(map[*FuncInfo]*Directive)
		}
		holders[d.Args][d.Func] = d
	}
	return holders
}

func sortedChanDecls(decls map[types.Object]*chanDecl) []*chanDecl {
	out := make([]*chanDecl, 0, len(decls))
	for _, d := range decls {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func ownerNames(owners map[*FuncInfo]bool) string {
	var names []string
	for fi := range owners {
		names = append(names, fi.Name())
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// --- rule 4: blocking channel ops while a mutex is held ---------------------

// chanLockBody is one swept body: EvNode events are its blocking channel
// operations, EvCall events its calls, each with the locks held there.
type chanLockBody struct {
	fi     *FuncInfo // nil for function literals
	name   string
	events []LockEvent
}

func runChanUnderLock(pass *ModulePass) {
	m := pass.Module
	var bodies []*chanLockBody
	blocking := make(map[*FuncInfo]bool) // performs a blocking channel op, directly or through a call
	for _, fi := range m.Funcs() {
		b := &chanLockBody{fi: fi, name: fi.Name(), events: m.SweepLocks(fi.Pkg, fi.Decl.Body, lockEntryKey(fi), blockingChanOp(fi.Pkg))}
		bodies = append(bodies, b)
		for _, e := range b.events {
			if e.Kind == EvNode {
				blocking[fi] = true
			}
		}
		for _, lit := range nestedFuncLits(fi.Decl.Body) {
			bodies = append(bodies, &chanLockBody{name: "function literal in " + fi.Name(),
				events: m.SweepLocks(fi.Pkg, lit.Body, "", blockingChanOp(fi.Pkg))})
		}
	}

	// Fixpoint: blocking propagates up the call graph.
	for changed := true; changed; {
		changed = false
		for _, b := range bodies {
			if b.fi == nil || blocking[b.fi] {
				continue
			}
			for _, e := range b.events {
				if e.Kind == EvCall && blocking[e.Callee] {
					blocking[b.fi] = true
					changed = true
					break
				}
			}
		}
	}

	seen := make(map[token.Pos]bool)
	for _, b := range bodies {
		for _, e := range b.events {
			if len(e.Held) == 0 || seen[e.Pos] {
				continue
			}
			switch {
			case e.Kind == EvNode:
				seen[e.Pos] = true
				pass.ReportCat(e.Pos, "chan-under-lock",
					"%s in %s while %s is held: a channel wait under a mutex stalls every path into the lock",
					e.What, b.name, strings.Join(e.Held, ", "))
			case e.Kind == EvCall && blocking[e.Callee]:
				seen[e.Pos] = true
				pass.ReportCat(e.Pos, "chan-under-lock",
					"call to %s in %s while %s is held: the callee performs a blocking channel operation",
					e.Callee.Name(), b.name, strings.Join(e.Held, ", "))
			}
		}
	}
}

// blockingChanOp is the sweep classifier for rule 4: it labels the
// operations that can park the goroutine on a channel.
func blockingChanOp(pkg *Package) func(stack []ast.Node, n ast.Node) string {
	return func(stack []ast.Node, n ast.Node) string {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !isSelectComm(stack, n) {
				return "channel send"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isSelectComm(stack, n) {
				return "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				return "blocking select"
			}
		case *ast.RangeStmt:
			if _, ok := pkg.Info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				return "range over channel"
			}
		}
		return ""
	}
}

// isSelectComm reports whether n is (inside) the comm statement of a
// select clause — the op the select itself arbitrates.
func isSelectComm(stack []ast.Node, n ast.Node) bool {
	child := n
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.CommClause:
			return a.Comm == child
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		child = stack[i]
	}
	return false
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, s := range sel.Body.List {
		if cc, ok := s.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
