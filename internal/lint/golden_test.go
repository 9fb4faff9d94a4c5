package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fcae/internal/lint"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata want.txt golden files")

// goldenAnalyzers maps each testdata/<name> corpus to the analyzers run
// over its cases. The dyncall corpus exercises the dynamic-dispatch
// resolver through every module analyzer that consumes it.
var goldenAnalyzers = map[string][]*lint.Analyzer{
	"lockorder": {lint.LockOrder},
	"devmem":    {lint.DevMem},
	"taint":     {lint.Taint},
	"goleak":    {lint.GoLeak},
	"chanflow":  {lint.ChanFlow},
	"hotalloc":  {lint.HotAlloc},
	"enumstr":   {lint.EnumStr},
	"bufalias":  {lint.BufAlias},
	"dyncall":   {lint.LockOrder, lint.GoLeak, lint.Taint, lint.ChanFlow, lint.HotAlloc},
}

// TestGoldenCorpus loads every fixture module under testdata/<analyzer>/
// and compares the analyzer's findings against the case's want.txt. Each
// corpus must hold at least one true-positive and one clean case so a
// regression in either direction (missed finding, new false positive)
// breaks the build. Regenerate with `go test ./internal/lint -run Golden
// -update` after an intentional message or position change.
func TestGoldenCorpus(t *testing.T) {
	t.Parallel()
	for name, analyzers := range goldenAnalyzers {
		corpus := filepath.Join("testdata", name)
		entries, err := os.ReadDir(corpus)
		if err != nil {
			t.Fatalf("corpus %s: %v", name, err)
		}
		sawFinding, sawClean := false, false
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			caseDir := filepath.Join(corpus, e.Name())
			got := runGoldenCase(t, analyzers, caseDir)
			if got == "" {
				sawClean = true
			} else {
				sawFinding = true
			}
			wantPath := filepath.Join(caseDir, "want.txt")
			if *updateGolden {
				if err := os.WriteFile(wantPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(wantPath)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s: findings mismatch\n--- got ---\n%s--- want ---\n%s", caseDir, got, want)
			}
		}
		if !*updateGolden && (!sawFinding || !sawClean) {
			t.Errorf("corpus %s must contain at least one finding case and one clean case (finding=%v clean=%v)",
				name, sawFinding, sawClean)
		}
	}
}

// runGoldenCase loads the fixture module in dir and renders the given
// analyzers' diagnostics with module-relative paths, one per line.
func runGoldenCase(t *testing.T, analyzers []*lint.Analyzer, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(abs)
	if err != nil {
		t.Fatalf("%s: load: %v", dir, err)
	}
	diags := lint.Check(pkgs, analyzers)
	var lines []string
	for _, d := range diags {
		rel, err := filepath.Rel(abs, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		lines = append(lines, fmt.Sprintf("%s:%d:%d: %s: %s",
			filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}
