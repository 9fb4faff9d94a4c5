// Command fcaelint runs the repo's static-analysis suite (internal/lint)
// over the module and prints file:line:col diagnostics. It exits 1 when
// any analyzer reports a finding and 2 when the module fails to load (or
// on bad usage), so the verify line can gate on it:
//
//	go run ./cmd/fcaelint ./...
//	go run ./cmd/fcaelint ./internal/lint
//
// Package arguments are ./... (or none — the whole module) or
// module-relative package directories, with an optional /... suffix
// (./internal/lint, internal/lsm/...). The suite ALWAYS loads and
// cross-checks the whole module — interface resolution and lock-order
// graphs need every package — directory arguments only narrow which
// findings are reported, so a subtree run stays as precise as a full
// one. A directory that does not exist under the module root exits 2.
//
// Flags:
//
//	-json     emit a report object, {"findings": [...]}, each finding
//	          {file, line, col, analyzer, message, category}
//	-C DIR    analyze the module containing DIR instead of cwd
//	-list     list the analyzers and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fcae/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json wire schema.
type jsonReport struct {
	Findings []jsonDiag `json:"findings"`
}

// jsonDiag is the -json wire schema, one object per finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Category is the analyzer's machine-readable finding class (e.g.
	// hotalloc's "make"/"append"/"box"), when the analyzer assigns one.
	Category string `json:"category,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fcaelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, `emit a JSON report object, {"findings": [...]}`)
	dir := fs.String("C", "", "analyze the module containing this directory (default: cwd)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fcaelint [-list] [-json] [-C dir] [./... | pkg-dir ...]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	// Non-./... arguments are module-relative package directories that
	// narrow the *reported* findings; the whole module is still loaded
	// and analyzed so cross-package facts stay complete.
	var filters []string
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." {
			continue
		}
		f := filepath.ToSlash(filepath.Clean(strings.TrimSuffix(arg, "/...")))
		filters = append(filters, strings.TrimPrefix(f, "./"))
	}

	start := *dir
	if start == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "fcaelint:", err)
			return 2
		}
		start = wd
	}
	root, err := lint.FindModuleRoot(start)
	if err != nil {
		fmt.Fprintln(stderr, "fcaelint:", err)
		return 2
	}
	for _, f := range filters {
		st, err := os.Stat(filepath.Join(root, filepath.FromSlash(f)))
		if err != nil || !st.IsDir() {
			fmt.Fprintf(stderr, "fcaelint: package path %q is not a directory under module root %s\n", f, root)
			return 2
		}
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "fcaelint:", err)
		return 2
	}
	diags := lint.Check(pkgs, lint.Analyzers())

	rel := func(filename string) string {
		if r, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filename
	}

	if len(filters) > 0 {
		kept := diags[:0]
		for _, d := range diags {
			if underAnyFilter(rel(d.Pos.Filename), filters) {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	if *jsonOut {
		report := jsonReport{Findings: make([]jsonDiag, 0, len(diags))}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonDiag{
				File:     rel(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Category: d.Category,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "fcaelint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fcaelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// underAnyFilter reports whether a module-relative file path falls under
// one of the requested package directories.
func underAnyFilter(relFile string, filters []string) bool {
	for _, f := range filters {
		if f == "." || strings.HasPrefix(relFile, f+"/") {
			return true
		}
	}
	return false
}
