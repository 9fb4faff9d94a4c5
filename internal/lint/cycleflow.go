package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// CycleFlow keeps the timing model honest. The simulated FPGA engine in
// internal/core derives every latency figure from cycle counters, and
// those counters must only change inside the accounting helpers that
// encode the paper's pipeline model (stage periods, bottleneck
// initiation interval, block-switch stalls). Ad-hoc arithmetic on a
// cycle/clock/busy quantity anywhere else drifts the model away from
// the published numbers without failing any test.
//
// A function that legitimately performs cycle accounting carries the
// directive comment `//fcae:cycle-accounting` in its doc comment; all
// other functions in internal/core may read cycle fields but not
// compute with them.
var CycleFlow = &Analyzer{
	Name: "cycleflow",
	Doc: "cycle-counter arithmetic in internal/core is restricted to functions " +
		"marked //fcae:cycle-accounting",
	Run: runCycleFlow,
}

var cycleIdent = regexp.MustCompile(`(?i)cycle|clock|busy`)

func runCycleFlow(pass *ModulePass) {
	for _, fi := range pass.Module.Funcs() {
		if isCorePkg(fi.Pkg) && !cycleAccounted(pass.Module, fi.Decl) {
			checkCycleFlow(pass, fi.Decl)
		}
	}
}

// isCorePkg reports whether pkg is the engine model, internal/core.
func isCorePkg(pkg *Package) bool {
	return strings.HasSuffix(pkg.Types.Path(), "internal/core")
}

// cycleAccounted reports whether fd's doc comment carries
// //fcae:cycle-accounting.
func cycleAccounted(m *Module, fd *ast.FuncDecl) bool {
	return len(m.Directives.OnFunc("cycle-accounting", fd)) > 0
}

func checkCycleFlow(pass *ModulePass, fd *ast.FuncDecl) {
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos,
			"%s in %s computes with a cycle quantity outside an accounting helper "+
				"(move it into a //fcae:cycle-accounting function)",
			what, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
				if name := cycleOperand(n.X); name != "" {
					report(n.Pos(), "arithmetic on "+name)
				} else if name := cycleOperand(n.Y); name != "" {
					report(n.Pos(), "arithmetic on "+name)
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
				for _, lhs := range n.Lhs {
					if name := cycleOperand(lhs); name != "" {
						report(n.Pos(), "compound assignment to "+name)
						break
					}
				}
				for _, rhs := range n.Rhs {
					if name := cycleOperand(rhs); name != "" {
						report(n.Pos(), "compound assignment using "+name)
						break
					}
				}
			}
		case *ast.IncDecStmt:
			if name := cycleOperand(n.X); name != "" {
				report(n.Pos(), "increment/decrement of "+name)
			}
		}
		return true
	})
}

// cycleOperand returns the name of a cycle-flavoured identifier directly
// naming the operand (an ident or the selected field of a selector
// chain), or "" when the operand is not a cycle quantity. Function names
// in call position are not operands.
func cycleOperand(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if cycleIdent.MatchString(e.Name) {
			return e.Name
		}
	case *ast.SelectorExpr:
		if cycleIdent.MatchString(e.Sel.Name) {
			return e.Sel.Name
		}
	case *ast.CallExpr:
		// The result of a call is fine to pass around; computing with it
		// is what the binary-expression walk already catches one level up,
		// and the callee name itself is not an operand.
		return ""
	}
	return ""
}
