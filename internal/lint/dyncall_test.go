package lint_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"fcae/internal/lint"
)

// TestDynamicCalleesStdlibInterfaceUnresolved checks the module-seam
// restriction: calls through stdlib or anonymous interfaces must not
// resolve (they would fan out to every accidental structural match).
func TestDynamicCalleesStdlibInterfaceUnresolved(t *testing.T) {
	t.Parallel()
	const src = `package fixture

import "io"

type sink struct{}

func (sink) Close() error { return nil }

func use(c io.Closer) error { return c.Close() }

func anon(f interface{ Flush() error }) error { return f.Flush() }

var _ = sink{}
var _ = use
var _ = anon
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stdlib.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := lint.BuildModule(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if got := m.DynamicCallees(pkg.Info, call); len(got) != 0 {
						t.Errorf("stdlib/anonymous interface calls must stay unresolved, %s resolved to %d callee(s)",
							pkg.Fset.Position(call.Pos()), len(got))
					}
				}
				return true
			})
		}
	}
}
