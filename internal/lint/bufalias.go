package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// BufAlias flags retention of iterator Key()/Value() views. Every
// iterator in this store (block, table, memtable, merging) reuses its
// key/value buffers: the returned slices are valid only until the next
// positioning call. The classic LSM bug is keeping such a view — in a
// struct field, a slice, a map or across a Next() — and reading garbage
// after the iterator moves on. A view is any 0-argument Key()/Value()
// method call on a value whose type also has a Next method.
//
// Flagged retention shapes:
//   - storing the raw view into a struct field, map or slice element
//   - appending the view itself as an element (append(s, it.Key()) —
//     the copying form append(buf, it.Key()...) is fine)
//   - returning the raw view from any function not itself named
//     Key or Value (plain forwarders keep the documented lifetime)
//   - reading a local bound to the view after the iterator's Next/Prev
//     (in source order, within the same function)
//
// One retention shape can be vouched for: a struct that caches the view
// of an iterator it also holds (x.key = x.it.Key(), the merging heap's
// slots) and re-reads it whenever that iterator moves. `//fcae:view-ok
// <reason>` on the store's line or the line above accepts it — the
// reason is mandatory — and turns the claim into a check: every function
// of the package that moves the iterator through that field (x.it.Next(),
// Prev, SeekGE, SeekToFirst, SeekToLast) must, later in its body, put
// something current into the field: call a function holding a vouched
// store of that view (or be one, with the store after the move), or
// overwrite the field with anything that is not the field itself — a copy
// taken while the iterator stood on the entry, or nil — or call a function
// that does. A move with none of these is reported at the call. Only the
// `x.f = x.it.Key()` form, both fields of one struct value, can carry the
// directive; one on any other line is unused, which the directive index
// reports. Moves made through another alias of the iterator are outside
// what the check can see.
var BufAlias = &Analyzer{
	Name: "bufalias",
	Doc:  "iterator Key()/Value() views must be copied before they outlive the next positioning call",
	Run:  runBufAlias,
}

const viewOKDirective = "//fcae:view-ok"

func runBufAlias(pass *ModulePass) {
	// Views are held and refreshed by functions of one package.
	for _, pkg := range pass.Module.Pkgs {
		var held []heldView
		eachFuncDecl(pass.Module, pkg, func(fd *ast.FuncDecl) {
			held = append(held, checkBufAlias(pass, pkg, fd)...)
		})
		checked := make(map[[2]*types.Var]bool)
		for _, hv := range held {
			if pair := [2]*types.Var{hv.view, hv.iter}; !checked[pair] {
				checked[pair] = true
				checkHeldView(pass, pkg, hv)
			}
		}
	}
}

func eachFuncDecl(m *Module, pkg *Package, visit func(*ast.FuncDecl)) {
	for _, fi := range m.Funcs() {
		if fi.Pkg == pkg {
			visit(fi.Decl)
		}
	}
}

// heldView is one vouched store: struct field view caches the
// Key()/Value() of the iterator in field iter of the same struct, and
// refresh is the function whose body performs the store.
type heldView struct {
	view, iter *types.Var
	refresh    types.Object
	pos        token.Pos
}

// heldViewOf recognizes lhs = recv.Key() as x.f = x.it.Key().
func heldViewOf(info *types.Info, fd *ast.FuncDecl, lhs *ast.SelectorExpr, recv ast.Expr, pos token.Pos) (heldView, bool) {
	recvSel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok || types.ExprString(lhs.X) != types.ExprString(recvSel.X) {
		return heldView{}, false
	}
	view, iter := fieldOf(info, lhs), fieldOf(info, recvSel)
	if view == nil || iter == nil {
		return heldView{}, false
	}
	return heldView{view: view, iter: iter, refresh: info.Defs[fd.Name], pos: pos}, true
}

// fieldOf resolves a selector to the struct field it names, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

var positioningMethods = map[string]bool{
	"Next": true, "Prev": true, "SeekGE": true, "SeekToFirst": true, "SeekToLast": true,
}

// overwrites reports whether as stores into field view something other
// than the field's own old contents.
func overwrites(info *types.Info, as *ast.AssignStmt, view *types.Var) bool {
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || fieldOf(info, sel) != view {
			continue
		}
		stale := false
		ast.Inspect(as.Rhs[i], func(n ast.Node) bool {
			if rs, ok := n.(*ast.SelectorExpr); ok && fieldOf(info, rs) == view {
				stale = true
			}
			return !stale
		})
		if !stale {
			return true
		}
	}
	return false
}

// checkHeldView holds a vouched store to its claim: wherever the package
// moves the iterator through hv.iter, a refresh of hv.view must follow in
// the same function — a store into the field of the view re-read or of
// anything else that is not the field's old contents, or a call to a
// function that makes such a store.
func checkHeldView(pass *ModulePass, pkg *Package, hv heldView) {
	info := pkg.Info
	refreshers := make(map[types.Object]bool)
	eachFuncDecl(pass.Module, pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && overwrites(info, as, hv.view) {
				refreshers[info.Defs[fd.Name]] = true
			}
			return true
		})
	})
	eachFuncDecl(pass.Module, pkg, func(fd *ast.FuncDecl) {
		var moves []*ast.CallExpr
		var lastRefresh token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				var callee types.Object
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callee = info.Uses[fun]
				case *ast.SelectorExpr:
					callee = info.Uses[fun.Sel]
					if recv, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok &&
						positioningMethods[fun.Sel.Name] && fieldOf(info, recv) == hv.iter {
						moves = append(moves, n)
					}
				}
				if refreshers[callee] {
					lastRefresh = n.Pos()
				}
			case *ast.AssignStmt:
				if overwrites(info, n, hv.view) {
					lastRefresh = n.Pos()
				}
			}
			return true
		})
		for _, mv := range moves {
			if lastRefresh > mv.Pos() {
				continue
			}
			pass.Reportf(mv.Pos(),
				"%s moves the iterator whose view field %s holds (vouched %s at %s) and never re-reads it; call %s after the move",
				types.ExprString(mv.Fun), hv.view.Name(), viewOKDirective, shortPos(pass.Module.Fset, hv.pos), hv.refresh.Name())
		}
	})
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// viewCall returns the receiver expression of e when e is a raw
// iterator Key()/Value() call, else nil.
func viewCall(pkg *Package, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Key" && sel.Sel.Name != "Value") {
		return nil
	}
	if pkg.Info.Selections[sel] == nil {
		return nil // not a method call
	}
	if !hasMethod(pkg.Types, pkg.Info.TypeOf(sel.X), "Next") {
		return nil
	}
	return sel.X
}

type localView struct {
	obj  types.Object
	recv string // printed receiver expression of the view call
	pos  token.Pos
}

func checkBufAlias(pass *ModulePass, pkg *Package, fd *ast.FuncDecl) (held []heldView) {
	info := pkg.Info
	var locals []localView
	assignedIdents := make(map[*ast.Ident]bool)  // idents appearing as assignment targets
	writes := make(map[types.Object][]token.Pos) // all writes per local object
	repositions := make(map[string][]token.Pos)  // Next/Prev calls per printed receiver

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					assignedIdents[id] = true
					if obj := identObj(info, id); obj != nil {
						writes[obj] = append(writes[obj], id.Pos())
					}
				}
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				recv := viewCall(pkg, rhs)
				if recv == nil {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					if d := pass.Module.Directives.AtLine("view-ok", rhs.Pos()); d != nil {
						d.Use()
						if hv, ok := heldViewOf(info, fd, lhs, recv, rhs.Pos()); ok {
							held = append(held, hv)
						} else {
							pass.Reportf(rhs.Pos(),
								"%s vouches only for x.f = x.it.Key() with f and it fields of one struct value; %s = %s is not that",
								viewOKDirective, types.ExprString(lhs), types.ExprString(rhs))
						}
						continue
					}
					pass.Reportf(rhs.Pos(),
						"%s view stored into field %s outlives the iterator's buffer; copy it (append(dst[:0], ...%s...))",
						types.ExprString(rhs), types.ExprString(lhs), types.ExprString(rhs))
				case *ast.IndexExpr:
					pass.Reportf(rhs.Pos(),
						"%s view stored into %s outlives the iterator's buffer; copy it first",
						types.ExprString(rhs), types.ExprString(lhs))
				case *ast.Ident:
					if obj := identObj(info, lhs); obj != nil {
						locals = append(locals, localView{obj: obj, recv: types.ExprString(recv), pos: rhs.Pos()})
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && n.Ellipsis == token.NoPos {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range n.Args[1:] {
						if viewCall(pkg, arg) != nil {
							pass.Reportf(arg.Pos(),
								"%s view appended as an element retains the iterator's buffer; append a copy",
								types.ExprString(arg))
						}
					}
				}
			}
			// Track repositioning calls for the local-view pass.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) == 0 &&
				(sel.Sel.Name == "Next" || sel.Sel.Name == "Prev") &&
				info.Selections[sel] != nil {
				recv := types.ExprString(sel.X)
				repositions[recv] = append(repositions[recv], n.Pos())
			}
		case *ast.ReturnStmt:
			if fd.Name.Name == "Key" || fd.Name.Name == "Value" {
				return true // forwarding iterator: same documented lifetime
			}
			for _, res := range n.Results {
				if viewCall(pkg, res) != nil {
					pass.Reportf(res.Pos(),
						"returning raw %s leaks the iterator's reused buffer; return a copy",
						types.ExprString(res))
				}
			}
		}
		return true
	})

	if len(locals) == 0 {
		return held
	}
	// For each local view, flag reads that happen (in source order) after
	// a repositioning of its iterator, unless the local was re-assigned
	// after that repositioning.
	for _, lv := range locals {
		reps := repositions[lv.recv]
		if len(reps) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || assignedIdents[id] || identObj(info, id) != lv.obj || id.Pos() <= lv.pos {
				return true
			}
			lastWrite := lv.pos
			for _, w := range writes[lv.obj] {
				if w < id.Pos() && w > lastWrite {
					lastWrite = w
				}
			}
			for _, r := range reps {
				if r > lastWrite && r < id.Pos() {
					pass.Reportf(id.Pos(),
						"%s read after %s.Next/Prev invalidated the view it holds; copy the bytes before advancing",
						id.Name, lv.recv)
					return true
				}
			}
			return true
		})
	}
	return held
}

// identObj resolves an identifier to its object (definition or use).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
