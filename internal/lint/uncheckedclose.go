package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedClose flags statements that discard the error of a Close,
// Flush or Sync method call. On the WAL, SSTable-writer and manifest
// paths those errors are the durability signal — a swallowed Close error
// after buffered writes is silent data loss. The check covers plain
// expression statements, and `defer f.Close()` inside a function that
// itself returns an error: such a function has somewhere to put the
// error, so the discard must be acknowledged with the
// `defer func() { _ = f.Close() }()` pattern (or the error joined into
// the named result). In functions with no error result a bare deferred
// Close stays idiomatic, and a deliberate discard is spelled
// `_ = f.Close()` so the acknowledgment is visible in review.
var UncheckedClose = &Analyzer{
	Name: "uncheckedclose",
	Doc: "Close/Flush/Sync errors must be handled or explicitly discarded with _ =, " +
		"including defer f.Close() in error-returning functions",
	Run: runUncheckedClose,
}

var closeKin = map[string]bool{"Close": true, "Flush": true, "Sync": true}

func runUncheckedClose(pass *ModulePass) {
	// Function bodies are walked explicitly so deferred Closes can be
	// judged against the enclosing function's result list. A nested
	// function literal re-scopes the rule: its own signature decides.
	for _, fi := range pass.Module.Funcs() {
		checkCloseBody(pass, fi.Pkg.Info, fi.Decl.Body, funcReturnsError(fi.Pkg.Info, fi.Decl.Type))
	}
}

func checkCloseBody(pass *ModulePass, info *types.Info, body *ast.BlockStmt, returnsError bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCloseBody(pass, info, n.Body, funcReturnsError(info, n.Type))
			return false
		case *ast.DeferStmt:
			if !returnsError {
				return true
			}
			if sel := closeKinCall(info, n.Call); sel != nil {
				recv := types.ExprString(sel.X)
				pass.Reportf(n.Pos(),
					"defer %s.%s() discards the error in an error-returning function (capture it in the result or write `defer func() { _ = %s.%s() }()`)",
					recv, sel.Sel.Name, recv, sel.Sel.Name)
			}
			return true
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel := closeKinCall(info, call); sel != nil {
				recv := types.ExprString(sel.X)
				pass.Reportf(n.Pos(), "%s.%s() error is silently dropped (handle it or write `_ = %s.%s()`)",
					recv, sel.Sel.Name, recv, sel.Sel.Name)
			}
			return true
		}
		return true
	})
}

// closeKinCall returns the selector of a no-arg Close/Flush/Sync method
// call whose sole result is an error, or nil.
func closeKinCall(info *types.Info, call *ast.CallExpr) *ast.SelectorExpr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !closeKin[sel.Sel.Name] || len(call.Args) != 0 {
		return nil
	}
	if info.Selections[sel] == nil {
		return nil // package function or conversion, not a method
	}
	if !isErrorType(info.TypeOf(call)) {
		return nil
	}
	return sel
}

// funcReturnsError reports whether the function type has an error among
// its results.
func funcReturnsError(info *types.Info, ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, r := range ft.Results.List {
		if isErrorType(info.TypeOf(r.Type)) {
			return true
		}
	}
	return false
}
