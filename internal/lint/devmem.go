package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DevMem enforces the device-memory layout invariants of internal/core,
// the package that models the FPGA engine's WIn/WOut memories (paper
// Tables II/III):
//
//  1. Data-block extents are produced only by the aligning InputBuilder.
//     Raw arithmetic on the layout fields IndexEntry.Offset/.Size and
//     TableDesc.IndexOff/.IndexLen — and any direct growth of the
//     DataMem/IndexMem regions — is confined to memlayout.go; everyone
//     else goes through the accessors so the 64 B/cycle AXI alignment
//     cannot be silently broken.
//  2. The Meta encode/decode functions spell the MetaIn/MetaOut entry
//     widths (20 and 12 bytes) with the named constants of meta.go, never
//     as bare literals, so a layout change is made in one place. (What
//     the MetaIn constants must equal is pinned where a wrong value
//     fails: the codec writes field by field, so TestMetaInRoundTrip
//     breaks on any other width. The MetaOut width is only charged, per
//     table, by the engine lane's transfer model.)
//  3. Every timing-relevant loop — one whose header or body touches
//     cycle/clock/busy quantities — must live in a function carrying the
//     //fcae:cycle-accounting directive, extending cycleflow (which only
//     sees arithmetic) to cover pure reads in loop conditions.
var DevMem = &Analyzer{
	Name: "devmem",
	Doc: "device-memory offsets only via the aligning builder in memlayout.go; " +
		"MetaIn/MetaOut widths as named constants; cycle loops under //fcae:cycle-accounting",
	Run: runDevMem,
}

// layoutFields are the extent-describing fields of the WIn image. Any
// arithmetic on them outside memlayout.go is a finding.
var layoutFields = map[string]map[string]bool{
	"IndexEntry": {"Offset": true, "Size": true},
	"TableDesc":  {"IndexOff": true, "IndexLen": true},
}

// memFields are the raw device-memory regions; only the builder appends
// to or reassigns them.
var memFields = map[string]map[string]bool{
	"InputImage": {"DataMem": true, "IndexMem": true},
}

func runDevMem(pass *ModulePass) {
	for _, pkg := range pass.Module.Pkgs {
		isCore := isCorePkg(pkg)
		for _, f := range pkg.Files {
			base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
			if !(isCore && base == "memlayout.go") {
				checkLayoutArith(pass, pkg.Info, f)
			}
			if isCore {
				checkMetaMagic(pass, f)
				checkCycleLoops(pass, f)
			}
		}
	}
}

// checkLayoutArith flags raw offset arithmetic and region growth outside
// the builder.
func checkLayoutArith(pass *ModulePass, info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if !arithOp(n.Op) {
				return true
			}
			for _, op := range []ast.Expr{n.X, n.Y} {
				if _, field := coreFieldSel(info, op, layoutFields); field != "" {
					pass.Reportf(op.Pos(),
						"raw arithmetic on device-memory layout field %s outside memlayout.go; extents come from the aligning InputBuilder (use its accessors)",
						field)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if _, field := coreFieldSel(info, lhs, memFields); field != "" {
						pass.Reportf(lhs.Pos(),
							"direct assignment to device memory region %s outside memlayout.go; regions are built only by the InputBuilder",
							field)
					}
				}
				return true
			}
			// Compound assignment (+=, <<=, ...) is arithmetic.
			for _, lhs := range n.Lhs {
				if _, field := coreFieldSel(info, lhs, layoutFields); field != "" {
					pass.Reportf(lhs.Pos(),
						"raw arithmetic on device-memory layout field %s outside memlayout.go; extents come from the aligning InputBuilder (use its accessors)",
						field)
				}
				if _, field := coreFieldSel(info, lhs, memFields); field != "" {
					pass.Reportf(lhs.Pos(),
						"direct growth of device memory region %s outside memlayout.go; regions are built only by the InputBuilder",
						field)
				}
			}
		case *ast.IncDecStmt:
			if _, field := coreFieldSel(info, n.X, layoutFields); field != "" {
				pass.Reportf(n.X.Pos(),
					"raw arithmetic on device-memory layout field %s outside memlayout.go; extents come from the aligning InputBuilder (use its accessors)",
					field)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if _, field := coreFieldSel(info, n.Args[0], memFields); field != "" {
					pass.Reportf(n.Args[0].Pos(),
						"append to device memory region %s outside memlayout.go; regions are built only by the InputBuilder",
						field)
				}
			}
		}
		return true
	})
}

// coreFieldSel reports whether e (parens and conversions unwrapped) selects
// one of the given fields on an internal/core layout type; it returns the
// selector and "Type.field" on a match.
func coreFieldSel(info *types.Info, e ast.Expr, fields map[string]map[string]bool) (*ast.SelectorExpr, string) {
	e = ast.Unparen(e)
	for {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		if tv, ok := info.Types[call.Fun]; !ok || !tv.IsType() {
			break
		}
		e = ast.Unparen(call.Args[0])
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	n := namedOf(info.TypeOf(sel.X))
	if n == nil || n.Obj().Pkg() == nil || !strings.HasSuffix(n.Obj().Pkg().Path(), "internal/core") {
		return nil, ""
	}
	set := fields[n.Obj().Name()]
	if set == nil || !set[sel.Sel.Name] {
		return nil, ""
	}
	return sel, n.Obj().Name() + "." + sel.Sel.Name
}

func arithOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
		return true
	}
	return false
}

// checkMetaMagic flags bare 20/12 integer literals in the Meta
// encode/decode functions — the entry widths must be spelled with the
// named constants so a layout change is made in exactly one place.
func checkMetaMagic(pass *ModulePass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !strings.Contains(fd.Name.Name, "Meta") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.INT {
				return true
			}
			if lit.Value == "20" || lit.Value == "12" {
				pass.Reportf(lit.Pos(),
					"magic MetaIn/MetaOut entry width %s in %s; use the named layout constant (metaInEntryLen/metaOutEntryFixedLen)",
					lit.Value, fd.Name.Name)
			}
			return true
		})
	}
}

// checkCycleLoops requires //fcae:cycle-accounting on any function whose
// loops touch cycle-model quantities, even read-only.
func checkCycleLoops(pass *ModulePass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || cycleAccounted(pass.Module, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var loop ast.Node
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loop = n
			default:
				return true
			}
			if ident := firstCycleIdent(loop); ident != "" {
				pass.Reportf(loop.Pos(),
					"timing-relevant loop in %s touches %q but the function lacks the //fcae:cycle-accounting directive",
					fd.Name.Name, ident)
				return false // one report per loop nest is enough
			}
			return true
		})
	}
}

// firstCycleIdent returns the first cycle-flavoured identifier (or field
// selector) inside n, or "".
func firstCycleIdent(n ast.Node) string {
	found := ""
	ast.Inspect(n, func(x ast.Node) bool {
		if found != "" {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && cycleIdent.MatchString(id.Name) {
			found = id.Name
			return false
		}
		return true
	})
	return found
}
