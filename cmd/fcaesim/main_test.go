package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestMain runs main instead of the tests when the test binary is started
// as the command by runSelf.
func TestMain(m *testing.M) {
	if os.Getenv("FCAESIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf runs the command with args and returns its output. Every figure
// it prints is modeled (cycles, PCIe bytes, the CPU cost model), so none
// is masked.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FCAESIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fcaesim %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestGolden: the 2-input engine, the 9-input engine of Table VII and both
// ablations print the recorded configuration, modeled times, speeds and
// stage shares, and the engine's files match the CPU lane's.
func TestGolden(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"n9-v8-win8", []string{"-n", "9", "-v", "8", "-win", "8"}},
		{"no-kv-separation", []string{"-no-kv-separation"}},
		{"no-index-separation", []string{"-no-index-separation"}},
	} {
		got := runSelf(t, append([]string{"-mb", "1"}, c.args...)...)
		path := filepath.Join("testdata", c.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from %s:\n--- got\n%s--- want\n%s", c.name, path, got, want)
		}
	}
}
