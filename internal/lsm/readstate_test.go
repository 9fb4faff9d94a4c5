package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/obs"
)

// scanAll drains it from First and returns what it surfaced, in order.
func scanAll(t *testing.T, it *Iterator) (ks, vs []string) {
	t.Helper()
	for ok := it.First(); ok; ok = it.Next() {
		ks = append(ks, string(it.Key()))
		vs = append(vs, string(it.Value()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return ks, vs
}

// checkScan requires it to surface exactly the model's contents.
func checkScan(t *testing.T, what string, it *Iterator, want map[string]string) {
	t.Helper()
	ks, vs := scanAll(t, it)
	if len(ks) != len(want) {
		t.Fatalf("%s: scanned %d keys, want %d", what, len(ks), len(want))
	}
	if !sort.StringsAreSorted(ks) {
		t.Fatalf("%s: scan out of order", what)
	}
	for i, k := range ks {
		if want[k] != vs[i] {
			t.Fatalf("%s: wrong value at %q", what, k)
		}
	}
}

func liveTables(v *manifest.Version) map[uint64]bool {
	live := make(map[uint64]bool)
	for _, files := range v.Levels {
		for _, f := range files {
			live[f.Num] = true
		}
	}
	return live
}

func tableOnDisk(db *DB, num uint64) bool {
	_, err := os.Stat(tablePath(db.dir, num))
	return err == nil
}

func deletedTables(rl *recordingListener) map[uint64]bool {
	deleted := make(map[uint64]bool)
	for _, e := range rl.snapshot() {
		if d, ok := e.(obs.TableDeletedEvent); ok {
			deleted[d.Num] = true
		}
	}
	return deleted
}

// TestReadersPinTablesAcrossCompaction: an iterator and a snapshot opened
// before a full rewrite of the tree keep scanning the pre-compaction
// contents; the iterator's version keeps the rewritten input tables on
// disk, and closing it is what finally deletes them.
func TestReadersPinTablesAcrossCompaction(t *testing.T) {
	rl := &recordingListener{}
	opts := smallOpts()
	opts.EventListener = rl
	db := openTest(t, opts)
	want := fillRandom(t, db, 3000, 100, 17)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	before := liveTables(db.vs.Current())
	if len(before) < 4 {
		t.Fatalf("only %d tables before the rewrite", len(before))
	}

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	snap := db.NewSnapshot()

	// Shadow every key, then push the whole tree down: every table the
	// iterator's version names becomes a compaction input.
	for k := range want {
		if err := db.Put([]byte(k), []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactLevel(manifest.NumLevels - 2); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	after := liveTables(db.vs.Current())
	for num := range before {
		if after[num] {
			t.Fatalf("table %d survived the rewrite; the test needs every input replaced", num)
		}
		if !tableOnDisk(db, num) {
			t.Fatalf("table %d unlinked while an iterator still names it", num)
		}
		if deletedTables(rl)[num] {
			t.Fatalf("TableDeleted fired for pinned table %d", num)
		}
	}

	checkScan(t, "iterator opened before the rewrite", it, want)
	sit, err := snap.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, "snapshot iterator opened after the rewrite", sit, want)
	for k, v := range want {
		if got, err := snap.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("snapshot Get(%q) = %d bytes, %v", k, len(got), err)
		}
		break
	}

	if err := sit.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	deleted := deletedTables(rl)
	for num := range before {
		if tableOnDisk(db, num) {
			t.Errorf("table %d still on disk after its last reader closed", num)
		}
		if !deleted[num] {
			t.Errorf("no TableDeleted event for table %d", num)
		}
	}
}

// TestWarmIteratorOpensNoTables: once every table is in the table cache,
// building an iterator, seeking and stepping opens no file at all.
func TestWarmIteratorOpensNoTables(t *testing.T) {
	db := openTest(t, smallOpts())
	want := fillRandom(t, db, 3000, 100, 23)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	warm, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, "warming scan", warm, want)
	warm.Close()

	hits0, misses0 := db.tables.stats()
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	if !it.Seek([]byte("key00004000")) {
		t.Fatal("seek found nothing")
	}
	for i := 0; i < 50; i++ {
		if !it.Next() {
			t.Fatalf("scan ended after %d steps", i)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	hits, misses := db.tables.stats()
	if misses != misses0 {
		t.Fatalf("warm iterator opened %d tables, want 0", misses-misses0)
	}
	if hits == hits0 {
		t.Fatal("warm iterator never went through the table cache")
	}
}

// TestTableHandleSurvivesEviction: neither the LRU nor a delete-evict
// closes (unmaps) a table under a reader; the last release does.
func TestTableHandleSurvivesEviction(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 3; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	files := db.vs.Current().Levels[0]
	if len(files) != 3 {
		t.Fatalf("%d L0 tables, want 3", len(files))
	}
	tc := db.tables
	tc.mu.Lock()
	tc.capacity = 1
	tc.mu.Unlock()

	h, err := tc.get(files[0].Num)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files[1:] { // pushes files[0] out of the LRU
		other, err := tc.get(f.Num)
		if err != nil {
			t.Fatal(err)
		}
		tc.release(other)
	}
	tc.evict(h.num) // as the obsolete-file sweep would
	if _, _, found, err := h.reader.Get(keys.UserKey(files[0].Smallest), 1<<40); err != nil || !found {
		t.Fatalf("read through an evicted handle: found=%v err=%v", found, err)
	}
	var b [1]byte
	if _, err := h.f.ReadAt(b[:], 0); err != nil {
		t.Fatalf("table read through an evicted handle: %v", err)
	}
	tc.release(h)
	if _, err := h.f.ReadAt(b[:], 0); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("table read after the last release: %v, want closed", err)
	}
}

// TestCheckpointDuringCompactions: a checkpoint taken while writers and
// forced compactions keep replacing tables opens and holds every key that
// was committed before it started.
func TestCheckpointDuringCompactions(t *testing.T) {
	db := openTest(t, smallOpts())
	want := fillRandom(t, db, 3000, 100, 29)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // interleaves with want's key range without touching its keys
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := []byte(fmt.Sprintf("key%08d-bg", i%12000))
			if err := db.Put(k, bytes.Repeat([]byte("b"), 100)); err != nil {
				t.Errorf("background put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for level := 0; !stop.Load(); level = (level + 1) % 3 {
			if err := db.CompactLevel(level); err != nil {
				t.Errorf("CompactLevel(%d): %v", level, err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// Checkpoints are cheap; take them until one demonstrably overlapped a
	// compaction, verifying each.
	base := t.TempDir()
	for try := 0; ; try++ {
		if try == 20 {
			t.Fatal("no checkpoint overlapped a compaction")
		}
		dest := fmt.Sprintf("%s/checkpoint%d", base, try)
		start := db.Stats().Compactions
		if err := db.Checkpoint(dest); err != nil {
			t.Fatal(err)
		}
		overlapped := db.Stats().Compactions > start

		cp, err := Open(dest, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		verifyAll(t, cp, want)
		it, err := cp.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		ks, _ := scanAll(t, it) // touches every copied table
		it.Close()
		cp.Close()
		if len(ks) < len(want) {
			t.Fatalf("checkpoint scan surfaced %d keys, want at least %d", len(ks), len(want))
		}
		if overlapped {
			return
		}
	}
}

// TestIteratorOutlivesClose pins what an iterator does after DB.Close: it
// keeps reading the tables of the version it holds.
func TestIteratorOutlivesClose(t *testing.T) {
	db, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := fillRandom(t, db, 3000, 100, 31)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	if !it.First() {
		t.Fatal("empty iterator")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkScan(t, "iterator after DB.Close", it, want)
	if !it.Last() || !it.Prev() {
		t.Fatalf("backward steps after DB.Close failed: %v", it.Error())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}
