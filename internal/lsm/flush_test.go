package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fcae/internal/obs"
)

// flushEnds returns the FlushEnd events rec has seen, failing on any
// flush that failed.
func flushEnds(t *testing.T, rec *recordingListener) []obs.FlushEndEvent {
	t.Helper()
	var ends []obs.FlushEndEvent
	for _, e := range rec.snapshot() {
		if fe, ok := e.(obs.FlushEndEvent); ok {
			if fe.Err != nil {
				t.Fatalf("flush %d failed: %v", fe.JobID, fe.Err)
			}
			ends = append(ends, fe)
		}
	}
	return ends
}

// tableEntries counts table num's entries by reading it back.
func tableEntries(t *testing.T, db *DB, num uint64) int {
	t.Helper()
	h, err := db.tables.get(num)
	if err != nil {
		t.Fatal(err)
	}
	defer db.tables.release(h)
	it := h.reader.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return n
}

// checkLive reads the live view after TestFlushKeepsSnapshotVersions's
// writes: k holds v2 and gone is deleted.
func checkLive(t *testing.T, db *DB) {
	t.Helper()
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("live Get(k) = %q, %v; want v2", v, err)
	}
	if _, err := db.Get([]byte("gone")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live Get(gone) = %v, want ErrNotFound", err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	checkScan(t, "live scan", it, map[string]string{"k": "v2"})
}

// TestFlushKeepsSnapshotVersions: a flush drops only what no reader can
// see, so a snapshot taken before an overwrite and a delete still reads
// the old value and the deleted key from the flushed table, while the live
// view, before and after a reopen, reads neither.
func TestFlushKeepsSnapshotVersions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if err := db.Put([]byte("gone"), []byte("below")); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if db.LevelFiles()[0] != 0 {
		t.Fatal("the deleted key's table should sit below L0")
	}
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	snap := db.NewSnapshot()
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	if v, err := snap.Get([]byte("k")); err != nil || string(v) != "v1" {
		t.Fatalf("snapshot Get(k) = %q, %v; want v1", v, err)
	}
	if v, err := snap.Get([]byte("gone")); err != nil || string(v) != "below" {
		t.Fatalf("snapshot Get(gone) = %q, %v; want below", v, err)
	}
	it, err := snap.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, "snapshot scan", it, map[string]string{"gone": "below", "k": "v1"})
	it.Close()
	checkLive(t, db)
	snap.Release()

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	checkLive(t, db)
}

// TestFlushDropsShadowedVersions: a key written n times flushes as one
// entry; under a held snapshot each key keeps the version the snapshot
// sees and the live one. FlushEnd, the flush_dropped counter and
// PropertyString count what was left out.
func TestFlushDropsShadowedVersions(t *testing.T) {
	rec := &recordingListener{}
	db := openTest(t, Options{EventListener: rec})
	const n = 10
	for i := 0; i < n; i++ {
		if err := db.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ends := flushEnds(t, rec)
	if len(ends) != 1 {
		t.Fatalf("%d FlushEnd events, want 1", len(ends))
	}
	if e := ends[0]; e.PairsIn != n || e.PairsDropped != n-1 {
		t.Fatalf("FlushEnd pairs in %d, dropped %d; want %d, %d", e.PairsIn, e.PairsDropped, n, n-1)
	}
	if got := tableEntries(t, db, ends[0].Output.Num); got != 1 {
		t.Fatalf("flushed table holds %d entries, want 1", got)
	}

	// Two keys, each written n times before a snapshot and once after:
	// the snapshot's version and the live one stay.
	for i := 0; i < n; i++ {
		for _, k := range []string{"a", "b"} {
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("old%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	for _, k := range []string{"a", "b"} {
		if err := db.Put([]byte(k), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ends = flushEnds(t, rec)
	if len(ends) != 2 {
		t.Fatalf("%d FlushEnd events, want 2", len(ends))
	}
	if e := ends[1]; e.PairsIn != 2*(n+1) || e.PairsDropped != 2*(n-1) {
		t.Fatalf("FlushEnd pairs in %d, dropped %d; want %d, %d", e.PairsIn, e.PairsDropped, 2*(n+1), 2*(n-1))
	}
	if got := tableEntries(t, db, ends[1].Output.Num); got != 4 {
		t.Fatalf("flushed table holds %d entries, want 4", got)
	}
	for _, k := range []string{"a", "b"} {
		if v, err := snap.Get([]byte(k)); err != nil || string(v) != fmt.Sprintf("old%d", n-1) {
			t.Fatalf("snapshot Get(%s) = %q, %v", k, v, err)
		}
	}

	want := int64(n-1) + int64(2*(n-1))
	if got := db.Metrics().Counters["flush_dropped"]; got != want {
		t.Fatalf("flush_dropped = %d, want %d", got, want)
	}
	if s := db.PropertyString(); !strings.Contains(s, fmt.Sprintf("%d entries dropped", want)) {
		t.Fatalf("PropertyString does not show the dropped entries:\n%s", s)
	}
}

// TestRecoveryFlushDropsShadowedVersions: the flush Open makes of a
// replayed log goes through the same check, one entry per key.
func TestRecoveryFlushDropsShadowedVersions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const keys, writes = 20, 5
	for w := 0; w < writes; w++ {
		for i := 0; i < keys; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key%02d", i)), []byte(fmt.Sprintf("v%d", w))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec := &recordingListener{}
	db, err = Open(dir, Options{EventListener: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ends := flushEnds(t, rec)
	if len(ends) != 1 {
		t.Fatalf("%d FlushEnd events on reopen, want 1", len(ends))
	}
	if e := ends[0]; e.PairsIn != keys*writes || e.PairsDropped != keys*(writes-1) {
		t.Fatalf("recovery FlushEnd pairs in %d, dropped %d; want %d, %d",
			e.PairsIn, e.PairsDropped, keys*writes, keys*(writes-1))
	}
	if got := tableEntries(t, db, ends[0].Output.Num); got != keys {
		t.Fatalf("recovered table holds %d entries, want %d", got, keys)
	}
	if v, err := db.Get([]byte("key07")); err != nil || string(v) != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("Get after recovery = %q, %v", v, err)
	}
}

// TestFilterFalsePositivesCountAsBlockMisses: a Get whose key the upper
// table's filter wrongly passes reads that table's block, misses and reads
// the lower table's. get_block_misses counts every false positive, and the
// reads leave L0 as it was: no read starts a merge.
func TestFilterFalsePositivesCountAsBlockMisses(t *testing.T) {
	db := openTest(t, Options{})
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	const span = 60000
	value := []byte("v")
	// Odd keys below L0, even keys in one L0 table over the same range.
	for i := 1; i < span; i += 2 {
		if err := db.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < span; i += 2 {
		if err := db.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	l0 := db.vs.Current().Levels[0]
	if len(l0) != 1 {
		t.Fatalf("L0 holds %d tables, want 1", len(l0))
	}
	upper := l0[0]
	h, err := db.tables.get(upper.Num)
	if err != nil {
		t.Fatal(err)
	}
	var probes [][]byte
	for i := 1; i < span; i += 2 {
		if h.reader.MayContain(key(i)) {
			probes = append(probes, key(i))
		}
	}
	db.tables.release(h)
	t.Logf("%d of %d absent keys pass the upper table's filter", len(probes), span/2)
	// A table without a filter would pass every absent key.
	if len(probes) < 150 || len(probes) > span/2/20 {
		t.Fatalf("%d false positives, want between 150 and 5%% of %d", len(probes), span/2)
	}

	for _, k := range probes {
		if v, err := db.Get(k); err != nil || !bytes.Equal(v, value) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if c := db.Metrics().Counters; c["get_block_misses"] != int64(len(probes)) {
		t.Fatalf("get_block_misses %d, want %d", c["get_block_misses"], len(probes))
	}
	if got := db.vs.Current().Levels[0]; len(got) != 1 || got[0] != upper {
		t.Fatalf("L0 changed under the probes: %v", got)
	}
}
