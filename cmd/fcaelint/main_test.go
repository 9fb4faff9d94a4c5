package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirtyModule is a synthetic module with one deliberate uncheckedclose
// finding (an error-returning function deferring f.Close bare).
var dirtyModule = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"a.go": `package a

import "os"

func open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}
`,
	"sub/sub.go": "package sub\n\n// Ok is clean.\nfunc Ok() int { return 1 }\n",
}

var cleanModule = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"a.go":   "package a\n\nfunc ok() int { return 1 }\n",
}

var brokenModule = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"a.go":   "package a\n\nfunc broken( {\n",
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunExitCodesAndOutput(t *testing.T) {
	t.Parallel()
	dirty := writeModule(t, dirtyModule)
	clean := writeModule(t, cleanModule)
	broken := writeModule(t, brokenModule)

	tests := []struct {
		name     string
		args     []string
		wantCode int
		check    func(t *testing.T, stdout, stderr string)
	}{
		{
			name:     "findings exit 1 with text output",
			args:     []string{"-C", dirty},
			wantCode: 1,
			check: func(t *testing.T, stdout, stderr string) {
				if !strings.Contains(stdout, "a.go:") || !strings.Contains(stdout, "uncheckedclose") {
					t.Errorf("stdout = %q, want module-relative uncheckedclose finding", stdout)
				}
				if !strings.Contains(stderr, "1 finding(s)") {
					t.Errorf("stderr = %q, want finding count", stderr)
				}
			},
		},
		{
			name:     "json schema",
			args:     []string{"-C", dirty, "-json"},
			wantCode: 1,
			check: func(t *testing.T, stdout, stderr string) {
				var report jsonReport
				if err := json.Unmarshal([]byte(stdout), &report); err != nil {
					t.Fatalf("stdout is not a JSON report object: %v\n%s", err, stdout)
				}
				if len(report.Findings) != 1 {
					t.Fatalf("got %d findings, want 1: %+v", len(report.Findings), report.Findings)
				}
				d := report.Findings[0]
				if d.File != "a.go" || d.Line != 10 || d.Col == 0 || d.Analyzer != "uncheckedclose" || d.Message == "" {
					t.Errorf("diag = %+v, want file a.go line 10 with analyzer and message", d)
				}
			},
		},
		{
			name:     "clean module exits 0",
			args:     []string{"-C", clean},
			wantCode: 0,
		},
		{
			name:     "load failure exits 2",
			args:     []string{"-C", broken},
			wantCode: 2,
			check: func(t *testing.T, stdout, stderr string) {
				if stderr == "" {
					t.Error("want a load error on stderr")
				}
			},
		},
		{
			name:     "path filter narrows findings to the subtree",
			args:     []string{"-C", dirty, "./sub"},
			wantCode: 0,
			check: func(t *testing.T, stdout, stderr string) {
				if strings.Contains(stdout, "uncheckedclose") {
					t.Errorf("stdout = %q, want root finding filtered out by ./sub", stdout)
				}
			},
		},
		{
			name:     "path filter keeps matching findings",
			args:     []string{"-C", dirty, ".", "./sub/..."},
			wantCode: 1,
			check: func(t *testing.T, stdout, stderr string) {
				if !strings.Contains(stdout, "uncheckedclose") {
					t.Errorf("stdout = %q, want the root finding kept by the . filter", stdout)
				}
			},
		},
		{
			name:     "nonexistent package dir exits 2",
			args:     []string{"-C", clean, "./no/such/dir"},
			wantCode: 2,
			check: func(t *testing.T, stdout, stderr string) {
				if !strings.Contains(stderr, "not a directory") {
					t.Errorf("stderr = %q, want a not-a-directory error", stderr)
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tt.args, &stdout, &stderr)
			if code != tt.wantCode {
				t.Fatalf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					tt.args, code, tt.wantCode, stdout.String(), stderr.String())
			}
			if tt.check != nil {
				tt.check(t, stdout.String(), stderr.String())
			}
		})
	}
}
