// Package lint implements fcaelint, the project's static-analysis suite.
// It is a self-contained analyzer framework built on the standard
// library's go/ast, go/parser and go/types packages — no external
// dependencies — mirroring the shape of golang.org/x/tools/go/analysis
// without importing it.
//
// The suite encodes invariants the compiler cannot check and that matter
// specifically to an LSM-tree store driving a device compaction engine.
// DESIGN.md ("Static analysis") holds the ledger: one row per analyzer
// with the invariant it protects, what it has caught and what it guards
// in the tree today.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Diagnostic is one finding, printed as file:line:col: analyzer: message.
// Category, when set, is a stable machine-readable finding class within
// the analyzer (surfaced by fcaelint -json; not part of the text format).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Category string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run sees the whole module at once through
// the facts layer (function index, call resolution, lock-state sweep,
// directive index); an analyzer whose rule is local to a package ranges
// over Module.Pkgs itself.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// Analyzers returns the full fcaelint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MutexGuard, ObsCallback, ErrWrap, BufAlias, UncheckedClose, CycleFlow,
		LockOrder, DevMem, Taint, GoLeak, ChanFlow, HotAlloc, EnumStr,
	}
}

// Check runs the given analyzers over one Module built from pkgs and
// returns the findings sorted by file position. Analyzers run in parallel,
// each accumulating into its own slice; go/types structures are read-only
// after loading, so concurrent passes over shared packages are safe.
// (The dynamic resolver's caches are mutex-guarded for the same reason.)
// The directive index reports last: only then is it known which
// suppressions and grants nobody consulted.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	mod := BuildModule(pkgs)
	results := make([][]Diagnostic, len(analyzers))
	ran := make(map[string]bool, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		ran[a.Name] = true
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			a.Run(&ModulePass{Module: mod, analyzer: a.Name, diags: &results[i]})
		}(i, a)
	}
	wg.Wait()
	diags := mod.Directives.findings(ran)
	for _, out := range results {
		diags = append(diags, out...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// errorType is the universe error interface, shared by several analyzers.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// hasMethod reports whether t's method set (or its pointer's) contains a
// method with the given name.
func hasMethod(pkg *types.Package, t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	_, ok := obj.(*types.Func)
	return ok
}
