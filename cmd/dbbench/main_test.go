package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"fcae"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestMain runs main instead of the tests when the test binary is started
// as the command by runSelf.
func TestMain(m *testing.M) {
	if os.Getenv("DBBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf runs the command with args and returns its output with every
// timing and the temp directory masked.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DBBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dbbench %v: %v\n%s", args, err, out)
	}
	out = regexp.MustCompile(` +[0-9.]+ (micros/op|ops/sec|seeks/sec|reads/sec|MB/s)`).ReplaceAll(out, []byte(" # $1"))
	return regexp.MustCompile(`dir=\S+`).ReplaceAllString(string(out), "dir=#")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestGolden: at a tiny scale every benchmark's counts, the store's stats
// and the report's shape match the recorded run; only timings may move.
func TestGolden(t *testing.T) {
	checkGolden(t, "default", runSelf(t, "-num", "3000", "-db", t.TempDir()))
	checkGolden(t, "delete", runSelf(t, "-num", "3000", "-db", t.TempDir(),
		"-benchmarks", "fillseq,deleterandom,readrandom,readseq"))
}

// TestSeekRandomReportsDamage: a flipped byte in a data block fails
// seekrandom with the corruption class; it must not read as short seeks.
func TestSeekRandomReportsDamage(t *testing.T) {
	dir := t.TempDir()
	withDB(t, dir, func(db *fcae.DB) {
		if _, err := runBench(db, "fillseq", 3000, 16, 100, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	tables, err := filepath.Glob(filepath.Join(dir, "*.ldb"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("want one table, have %v (%v)", tables, err)
	}
	b, err := os.ReadFile(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x40 // data blocks fill all but the last few KiB
	if err := os.WriteFile(tables[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	withDB(t, dir, func(db *fcae.DB) {
		if _, err := runBench(db, "seekrandom", 3000, 16, 100, 0.5); !errors.Is(err, fcae.ErrCorruption) {
			t.Fatalf("seekrandom over a damaged block: err = %v, want fcae.ErrCorruption", err)
		}
	})
}

func withDB(t *testing.T, dir string, fn func(*fcae.DB)) {
	t.Helper()
	db, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
