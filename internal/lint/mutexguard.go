package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MutexGuard enforces the repo's lock-discipline convention on structs
// with a `mu sync.Mutex` (or RWMutex) field: fields declared after mu are
// guarded by it, and any method that touches a guarded field must either
// acquire the mutex itself (a visible recv.mu.Lock / RLock in its body)
// or carry the "Locked" name suffix declaring that the caller holds mu.
// Fields declared before mu are the immutable-after-construction group
// and may be read freely — keep set-once configuration there.
var MutexGuard = &Analyzer{
	Name: "mutexguard",
	Doc: "methods touching mutex-guarded fields must lock mu or be named *Locked; " +
		"fields after the mu field are guarded, fields before it are immutable",
	Run: runMutexGuard,
}

func runMutexGuard(pass *ModulePass) {
	for _, pkg := range pass.Module.Pkgs {
		checkMutexGuard(pass, pkg)
	}
}

func checkMutexGuard(pass *ModulePass, pkg *Package) {
	// Pass 1: find guarded structs and their field sets.
	guarded := make(map[string]map[string]bool) // struct type name -> guarded fields
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fields := make(map[string]bool)
			sawMu := false
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if sawMu {
						fields[name.Name] = true
						continue
					}
					if name.Name == "mu" && isSyncMutex(pkg.Info.TypeOf(fld.Type)) {
						sawMu = true
					}
				}
			}
			if sawMu && len(fields) > 0 {
				guarded[ts.Name.Name] = fields
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return
	}

	// Pass 2: check each method of a guarded struct.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			typeName, recvObj := receiverOf(pkg.Info, fd)
			fields := guarded[typeName]
			if fields == nil || recvObj == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			if acquiresLock(pass.Module, pkg, fd.Body, pkg.Types.Name()+"."+typeName+".mu") {
				continue
			}
			reported := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || pkg.Info.Uses[x] != recvObj {
					return true
				}
				name := sel.Sel.Name
				if fields[name] && !reported[name] {
					reported[name] = true
					pass.Reportf(sel.Pos(),
						"%s.%s accesses mu-guarded field %q without holding %s.mu (lock it or rename the method *Locked)",
						typeName, fd.Name.Name, name, x.Name)
				}
				return true
			})
		}
	}
}

// receiverOf returns the receiver's base type name and its object.
func receiverOf(info *types.Info, fd *ast.FuncDecl) (string, types.Object) {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", nil
	}
	name := fd.Recv.List[0].Names[0]
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic instantiations if ever present.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", nil
	}
	return id.Name, info.Defs[name]
}

// acquiresLock reports whether the sweep of body — the function's own
// statements or a function literal inside it — sees key locked.
func acquiresLock(m *Module, pkg *Package, body *ast.BlockStmt, key string) bool {
	bodies := []*ast.BlockStmt{body}
	for _, lit := range nestedFuncLits(body) {
		bodies = append(bodies, lit.Body)
	}
	for _, b := range bodies {
		for _, e := range m.SweepLocks(pkg, b, "", nil) {
			if e.Kind == EvLock && e.Key == key {
				return true
			}
		}
	}
	return false
}
