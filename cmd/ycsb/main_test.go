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
	"fcae/cmd/internal/target"
	"fcae/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestMain runs main instead of the tests when the test binary is started
// as the command by runSelf.
func TestMain(m *testing.M) {
	if os.Getenv("YCSB_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf runs the command with args and returns its output with every
// timing and the server address masked.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "YCSB_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ycsb %v: %v\n%s", args, err, out)
	}
	out = regexp.MustCompile(` +[0-9.]+ ops/sec`).ReplaceAll(out, []byte(" # ops/sec"))
	out = regexp.MustCompile(`(?m) in \S+$`).ReplaceAll(out, []byte(" in #"))
	return regexp.MustCompile(`addr=\S+`).ReplaceAllString(string(out), "addr=#")
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

// TestGolden: at a tiny scale each workload's op split matches the
// recorded run, in-process and over the wire; only timings may move.
func TestGolden(t *testing.T) {
	checkGolden(t, "inprocess", runSelf(t, "-records", "3000", "-ops", "3000", "-db", t.TempDir()))

	srv, err := fcae.OpenServer(t.TempDir(), fcae.Options{}, fcae.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, "wire", runSelf(t, "-addr", srv.Addr().String(),
		"-records", "3000", "-ops", "3000", "-workloads", "load,a,e"))
}

// TestWorkloadEReportsDamage: a flipped byte in a data block fails
// workload E's scans with the corruption class; it must not read as short
// scans.
func TestWorkloadEReportsDamage(t *testing.T) {
	load, e := workload.YCSB[0], workload.YCSB[5]
	noRetries := func() int { return 0 }
	var inserts workload.Sequential
	dir := t.TempDir()
	withDB(t, dir, func(db *fcae.DB) {
		if err := run(target.DB{DB: db}, noRetries, load, 3000, 3000, 100, 7, &inserts); err != nil {
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
		if err := run(target.DB{DB: db}, noRetries, e, 3000, 3000, 100, 7, &inserts); !errors.Is(err, fcae.ErrCorruption) {
			t.Fatalf("workload E over a damaged block: err = %v, want fcae.ErrCorruption", err)
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
