package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ErrWrap flags fmt.Errorf calls that interpolate an error operand
// without %w. Recovery code (WAL replay, manifest load, table repair)
// matches causes with errors.Is/errors.As; an error formatted through %v
// or %s breaks that chain silently, so wrapping is mandatory whenever an
// error value reaches a format string.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf with an error operand must use %w so errors.Is/As keep working",
	Run:  runErrWrap,
}

func runErrWrap(pass *ModulePass) {
	for _, pkg := range pass.Module.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isPkgFunc(info, call, "fmt", "Errorf") || len(call.Args) < 2 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok {
					return true // dynamic format string: out of scope
				}
				format, err := strconv.Unquote(lit.Value)
				if err != nil || strings.Contains(format, "%w") {
					return true
				}
				for _, arg := range call.Args[1:] {
					t := info.TypeOf(arg)
					if t == nil {
						continue
					}
					if isErrorType(t) || (!types.IsInterface(t) && types.Implements(t, errorType)) ||
						types.Implements(types.NewPointer(t), errorType) && isConcreteNamed(t) {
						pass.Reportf(arg.Pos(), "error %s formatted into fmt.Errorf without %%w (errors.Is/As will not see it)",
							types.ExprString(arg))
						return true
					}
				}
				return true
			})
		}
	}
}

// isConcreteNamed reports whether t is a named non-interface type (so a
// pointer-receiver Error method counts when the value is addressable).
func isConcreteNamed(t types.Type) bool {
	_, ok := t.(*types.Named)
	return ok && !types.IsInterface(t)
}

// isPkgFunc reports whether call invokes pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}
