package fcae_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsResolve checks that every test a `go test -run` or `-fuzz`
// pattern in the CI workflow names exists in the packages the same command
// lists. go test passes when a pattern matches nothing, so a test renamed
// or deleted here would otherwise drop out of CI unseen. An anchored list,
// '^(A|B)$', must name whole functions; each alternative of an unanchored
// one must match part of some function's name.
func TestCIRunListsResolve(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile(`-(?:run|fuzz)[ =]('[^']*'|\S+)`)
	lists := 0
	for i, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test ") || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			pattern := strings.Trim(m[1], "'")
			if pattern == "^$" {
				continue
			}
			lists++
			names := testFuncs(t, pkgs)
			anchored := strings.HasPrefix(pattern, "^") && strings.HasSuffix(pattern, "$")
			if anchored {
				pattern = strings.TrimSuffix(strings.TrimPrefix(pattern, "^"), "$")
				pattern = strings.TrimSuffix(strings.TrimPrefix(pattern, "("), ")")
			}
			for _, alt := range strings.Split(pattern, "|") {
				re := regexp.MustCompile(alt)
				if anchored {
					re = regexp.MustCompile("^(?:" + alt + ")$")
				}
				found := false
				for _, n := range names {
					if re.MatchString(n) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("ci.yml:%d: %q matches no test function in %v", i+1, alt, pkgs)
				}
			}
		}
	}
	if lists == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
	t.Logf("%d -run / -fuzz patterns checked", lists)
}

// testFuncs returns the names of the Test, Fuzz, Benchmark and Example
// functions declared in the _test.go files of pkgs ("./x/..." walks x).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	var names []string
	scan := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "/...")
		if !recursive {
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				scan(f)
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
				scan(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
