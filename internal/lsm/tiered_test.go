package lsm

import (
	"fmt"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/core"
)

func tieredOpts() Options {
	o := smallOpts()
	o.TieredRuns = 4
	return o
}

func TestTieredModePreservesData(t *testing.T) {
	db := openTest(t, tieredOpts())
	want := fillRandom(t, db, 4000, 100, 71)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("tiered workload triggered no compactions")
	}
	verifyAll(t, db, want)
}

func TestTieredLevelsHoldMultipleRuns(t *testing.T) {
	db := openTest(t, tieredOpts()) // TieredRuns = 4
	// Three L0 merges, each pushing one fresh run into L1 without merging
	// L1's existing runs: L1 must accumulate three overlapping runs
	// (below the trigger, so they stay).
	for round := 0; round < 3; round++ {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key%05d", i*3+round)
			if err := db.Put([]byte(k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactLevel(0); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.vs.Current().NumRuns(1); n != 3 {
		t.Fatalf("L1 holds %d runs, want 3 (lazy merges must not touch existing runs)", n)
	}
}

// TestCheckpointKeepsTieredRuns checkpoints a tiered store whose L1 holds
// three overlapping runs of the same keys: the copy must keep each table's
// run, so it opens and the newest run's values win.
func TestCheckpointKeepsTieredRuns(t *testing.T) {
	db := openTest(t, tieredOpts())
	for round := 0; round < 3; round++ {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key%05d", i)
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("round%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactLevel(0); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.vs.Current().NumRuns(1); n != 3 {
		t.Fatalf("L1 holds %d runs, want 3", n)
	}
	dest := t.TempDir() + "/checkpoint"
	if err := db.Checkpoint(dest); err != nil {
		t.Fatal(err)
	}
	cp, err := Open(dest, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if n := cp.vs.Current().NumRuns(1); n != 3 {
		t.Fatalf("checkpoint L1 holds %d runs, want 3", n)
	}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key%05d", i)
		if v, err := cp.Get([]byte(k)); err != nil || string(v) != "round2" {
			t.Fatalf("checkpoint Get(%s) = %q, %v; want round2", k, v, err)
		}
	}
}

func TestTieredMultiRunJobsReachEngine(t *testing.T) {
	// The paper's §VII-C scenario: lazy compaction produces merges with
	// more than two sorted runs, which only the multi-input engine can
	// take; the 2-input engine must fall back for them.
	run := func(n int) (hw, fallback int64) {
		exec, err := core.NewExecutor(core.Config{N: n, V: 8, WIn: 8})
		if err != nil {
			t.Fatal(err)
		}
		opts := tieredOpts()
		opts.DispatchConfig.Devices = []compaction.Executor{exec}
		db := openTest(t, opts)
		fillRandom(t, db, 5000, 100, 77)
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		st := db.Stats()
		return st.HWCompactions, st.SWFallbacks
	}
	hw9, fb9 := run(9)
	hw2, fb2 := run(2)
	if hw9 == 0 {
		t.Fatal("9-input engine took no tiered merges")
	}
	if fb2 <= fb9 {
		t.Fatalf("2-input engine should fall back more often on tiered merges: %d vs %d (hw %d vs %d)",
			fb2, fb9, hw2, hw9)
	}
}

func TestTieredIteratorMergesRuns(t *testing.T) {
	db := openTest(t, tieredOpts())
	// Interleave overwrites so multiple runs hold versions of the same keys.
	for round := 0; round < 6; round++ {
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key%04d", i)
			v := fmt.Sprintf("round%d", round)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Value()) != "round5" {
			t.Fatalf("key %q shows stale version %q", it.Key(), it.Value())
		}
		n++
	}
	if n != 300 {
		t.Fatalf("scan saw %d keys, want 300", n)
	}
	// Backward too.
	for ok := it.Last(); ok; ok = it.Prev() {
		if string(it.Value()) != "round5" {
			t.Fatalf("backward: key %q shows stale version %q", it.Key(), it.Value())
		}
	}
}

func TestTieredDeletesRespectOtherRuns(t *testing.T) {
	// A tombstone must shadow values living in other runs of deeper
	// levels even after several tiered merges.
	db := openTest(t, tieredOpts())
	if err := db.Put([]byte("victim"), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("victim")); err != nil {
		t.Fatal(err)
	}
	// Push the tombstone down through several merges while the old value
	// sits in an older run.
	for i := 0; i < 3; i++ {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactLevel(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Get([]byte("victim")); err != ErrNotFound {
		t.Fatalf("deleted key visible again: %v", err)
	}
	it, _ := db.NewIterator()
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Key()) == "victim" {
			t.Fatal("tombstoned key resurfaced in scan")
		}
	}
}

func TestTieredRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := tieredOpts()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fillRandom(t, db, 3000, 80, 79)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	runIDs := make(map[uint64]uint64) // table number -> run id, below L0
	v := db.vs.Current()
	for level := 1; level < len(v.Levels); level++ {
		for _, f := range v.Levels[level] {
			runIDs[f.Num] = f.RunID
		}
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verifyAll(t, db2, want)
	// Run ids must survive the manifest round trip.
	v = db2.vs.Current()
	kept, tiered := 0, false
	for level := 1; level < len(v.Levels); level++ {
		for _, f := range v.Levels[level] {
			if id, ok := runIDs[f.Num]; ok {
				if f.RunID != id {
					t.Fatalf("table %d: run id %d after recovery, %d before", f.Num, f.RunID, id)
				}
				kept++
				tiered = tiered || id != 0
			}
		}
	}
	if kept == 0 || !tiered {
		t.Fatalf("%d tables below L0 outlived the reopen, tiered=%v: nothing to compare", kept, tiered)
	}
}

func TestTieredModelCheck(t *testing.T) {
	runModelCheck(t, func() Options {
		o := tieredOpts()
		o.DispatchConfig.Devices = newDeviceChannels(t, 1)
		return o
	}, 3000, 83)
}

func TestTieredWriteAmpLowerThanLeveled(t *testing.T) {
	// The point of lazy compaction: less rewriting per ingested byte.
	fill := func(opts Options) float64 {
		db := openTest(t, opts)
		fillRandom(t, db, 6000, 100, 89)
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		return db.WriteAmplification()
	}
	leveled := fill(smallOpts())
	tiered := fill(tieredOpts())
	if tiered >= leveled {
		t.Fatalf("tiered WA %.2f should undercut leveled %.2f", tiered, leveled)
	}
}
