package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/memtable"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// smallOpts shrink thresholds so compactions trigger quickly in tests.
func smallOpts() Options {
	return Options{
		MemTableBytes:      32 << 10,
		BaseLevelBytes:     128 << 10,
		MaxOutputFileBytes: 32 << 10,
		BlockCacheBytes:    1 << 20,
	}
}

func TestPutGetDelete(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("hello")); err != ErrNotFound {
		t.Fatalf("deleted key: err = %v", err)
	}
	if _, err := db.Get([]byte("never")); err != ErrNotFound {
		t.Fatalf("absent key: err = %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v9" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestBatchAtomicCommit(t *testing.T) {
	db := openTest(t, Options{})
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("bk%03d", i)), []byte(fmt.Sprintf("bv%03d", i)))
	}
	b.Delete([]byte("bk050"))
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("bk050")); err != ErrNotFound {
		t.Fatal("delete in batch not applied")
	}
	v, err := db.Get([]byte("bk099"))
	if err != nil || string(v) != "bv099" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestFlushPersistsToL0(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	files := db.LevelFiles()
	if files[0] == 0 {
		t.Fatal("flush produced no L0 table")
	}
	v, err := db.Get([]byte("key0042"))
	if err != nil || string(v) != "val0042" {
		t.Fatalf("Get after flush = %q, %v", v, err)
	}
}

// fillRandom writes n random-keyed entries and returns the model map.
func fillRandom(t *testing.T, db *DB, n, valueLen int, seed int64) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	want := make(map[string]string)
	val := make([]byte, valueLen)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%08d", rng.Intn(n*4))
		rng.Read(val)
		if rng.Intn(10) == 0 && want[k] != "" {
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
			continue
		}
		if err := db.Put([]byte(k), val); err != nil {
			t.Fatal(err)
		}
		want[k] = string(val)
	}
	return want
}

func verifyAll(t *testing.T, db *DB, want map[string]string) {
	t.Helper()
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get(%q) mismatch (%d vs %d bytes)", k, len(got), len(v))
		}
	}
}

func TestCompactionsPreserveData(t *testing.T) {
	db := openTest(t, smallOpts())
	want := fillRandom(t, db, 4000, 100, 7)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Compactions+st.TrivialMoves == 0 {
		t.Fatal("workload did not trigger any compaction")
	}
	levels := db.LevelFiles()
	deeper := 0
	for l := 1; l < len(levels); l++ {
		deeper += levels[l]
	}
	if deeper == 0 {
		t.Fatalf("no tables moved below L0: %v", levels)
	}
	verifyAll(t, db, want)
}

func TestFCAEBackendEndToEnd(t *testing.T) {
	opts := smallOpts()
	opts.DispatchConfig.Devices = newDeviceChannels(t, 1)
	db := openTest(t, opts)
	want := fillRandom(t, db, 4000, 100, 11)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.HWCompactions == 0 {
		t.Fatal("no compactions ran on the FCAE backend")
	}
	if st.KernelTime <= 0 || st.TransferTime <= 0 {
		t.Fatalf("modeled times missing: %+v", st)
	}
	verifyAll(t, db, want)
}

func TestFCAEAndCPUProduceSameContents(t *testing.T) {
	cpuOpts := smallOpts()
	fcaeOpts := smallOpts()
	fcaeOpts.DispatchConfig.Devices = newDeviceChannels(t, 1)

	cpuDB := openTest(t, cpuOpts)
	fcaeDB := openTest(t, fcaeOpts)
	// Same deterministic workload into both.
	rng := rand.New(rand.NewSource(3))
	val := make([]byte, 64)
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("key%06d", rng.Intn(5000)))
		rng.Read(val)
		if err := cpuDB.Put(k, val); err != nil {
			t.Fatal(err)
		}
		if err := fcaeDB.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := cpuDB.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := fcaeDB.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	itC, err := cpuDB.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer itC.Close()
	itF, err := fcaeDB.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer itF.Close()
	okC, okF := itC.First(), itF.First()
	n := 0
	for okC && okF {
		if !bytes.Equal(itC.Key(), itF.Key()) || !bytes.Equal(itC.Value(), itF.Value()) {
			t.Fatalf("divergence at entry %d: %q vs %q", n, itC.Key(), itF.Key())
		}
		okC, okF = itC.Next(), itF.Next()
		n++
	}
	if okC != okF {
		t.Fatal("iterators ended at different lengths")
	}
	if n == 0 {
		t.Fatal("no entries compared")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i)))
	}
	// Close without flushing: data only in the WAL.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, i := range []int{0, 250, 499} {
		v, err := db2.Get([]byte(fmt.Sprintf("key%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%04d", i) {
			t.Fatalf("recovered Get(%d) = %q, %v", i, v, err)
		}
	}
}

func TestRecoveryAfterCompactions(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fillRandom(t, db, 3000, 80, 13)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verifyAll(t, db2, want)
}

func TestIteratorFullScan(t *testing.T) {
	db := openTest(t, smallOpts())
	want := fillRandom(t, db, 2000, 50, 17)
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := make(map[string]string)
	var prev []byte
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("iterator keys not strictly ascending")
		}
		prev = append(prev[:0], it.Key()...)
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q mismatch", k)
		}
	}
}

func TestIteratorSeek(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 100; i += 2 {
		db.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("v"))
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Seek([]byte("key051")) || string(it.Key()) != "key052" {
		t.Fatalf("Seek(key051) landed on %q", it.Key())
	}
	if !it.Seek([]byte("key000")) || string(it.Key()) != "key000" {
		t.Fatalf("Seek(key000) landed on %q", it.Key())
	}
	if it.Seek([]byte("zzz")) {
		t.Fatal("Seek past end should be invalid")
	}
}

func TestIteratorHidesTombstonesAcrossLevels(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	db.Put([]byte("c"), []byte("3"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Delete([]byte("b"))
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var seen []string
	for ok := it.First(); ok; ok = it.Next() {
		seen = append(seen, string(it.Key()))
	}
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "c" {
		t.Fatalf("scan = %v, want [a c]", seen)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("k"), []byte("old"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("new"))
	db.Delete([]byte("gone"))

	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "old" {
		t.Fatalf("snapshot Get = %q, %v", v, err)
	}
	v, err = db.Get([]byte("k"))
	if err != nil || string(v) != "new" {
		t.Fatalf("live Get = %q, %v", v, err)
	}
}

func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	db := openTest(t, smallOpts())
	db.Put([]byte("pinned"), []byte("v1"))
	snap := db.NewSnapshot()
	defer snap.Release()
	fillRandom(t, db, 3000, 100, 23)
	db.Put([]byte("pinned"), []byte("v2"))
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	v, err := snap.Get([]byte("pinned"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("snapshot after compactions = %q, %v", v, err)
	}
}

func TestSnapshotIterator(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("a"), []byte("1"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("b"), []byte("2"))
	it, err := snap.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("snapshot iterator saw %d keys, want 1", n)
	}
}

func TestWriteStallCountersUnderPressure(t *testing.T) {
	opts := smallOpts()
	opts.MemTableBytes = 8 << 10
	opts.L0SlowdownTrigger = 2
	opts.L0StopTrigger = 4
	opts.L0CompactionTrigger = 2
	db := openTest(t, opts)
	val := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.StallWrites == 0 {
		t.Fatal("aggressive thresholds should have stalled some writes")
	}
}

func TestCloseThenOperations(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("x"), []byte("y")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestManualCompactLevel(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	files := db.LevelFiles()
	if files[0] != 0 {
		t.Fatalf("L0 still has %d files after manual compaction", files[0])
	}
	if files[1] == 0 {
		t.Fatal("manual compaction produced nothing at L1")
	}
	v, err := db.Get([]byte("key0042"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after manual compaction = %q, %v", v, err)
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	db := openTest(t, Options{})
	var b Batch
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Writes != 0 {
		t.Fatal("empty batch counted as a write")
	}
}

func TestLargeValues(t *testing.T) {
	db := openTest(t, Options{})
	val := bytes.Repeat([]byte("V"), 1<<20)
	if err := db.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("big value: %v, %d bytes", err, len(got))
	}
}

func TestKeysWithBinaryContent(t *testing.T) {
	db := openTest(t, Options{})
	k := []byte{0x00, 0xff, 0x01, 0xfe}
	v := []byte{0xde, 0xad, 0xbe, 0xef}
	if err := db.Put(k, v); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get(k)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("binary key round trip: %v", err)
	}
}

func TestSeqAdvancesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	db.Put([]byte("k"), []byte("v1"))
	db.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.Put([]byte("k"), []byte("v2"))
	v, err := db2.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("after reopen Get = %q, %v (sequence regression?)", v, err)
	}
	_ = keys.MaxSeq
}

func TestPropertyString(t *testing.T) {
	db := openTest(t, smallOpts())
	fillRandom(t, db, 1500, 80, 31)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	s := db.PropertyString()
	for _, want := range []string{"Level", "compactions:", "write stalls:"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("PropertyString missing %q:\n%s", want, s)
		}
	}
	if wa := db.WriteAmplification(); wa < 1 {
		t.Fatalf("WriteAmplification = %.2f", wa)
	}
}

func TestCompactRange(t *testing.T) {
	db := openTest(t, smallOpts())
	want := fillRandom(t, db, 2000, 80, 37)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	files := db.LevelFiles()
	if files[0] != 0 {
		t.Fatalf("CompactRange left %d files in L0", files[0])
	}
	verifyAll(t, db, want)
}

func TestCompactRangePartial(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	if err := db.CompactRange([]byte("key0050"), []byte("key0100")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("key0075"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after partial CompactRange: %v", err)
	}
}

// TestFilterRejectedProbesReadNoBlocks: two overlapping L0 tables — even
// keys, then odd ones — and 150 Gets of key0002. The newer table's filter
// rules the key out every time, so each Get reads one table's blocks and
// the registry counts every probe the filter saved.
func TestFilterRejectedProbesReadNoBlocks(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i*2)), []byte("old"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i*2+1)), []byte("new"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if l0 := db.vs.Current().Levels[0]; len(l0) != 2 {
		t.Fatalf("L0 holds %d tables, want 2", len(l0))
	}
	for i := 0; i < 150; i++ {
		if _, err := db.Get([]byte("key0002")); err != nil {
			t.Fatal(err)
		}
	}
	c := db.Metrics().Counters
	if c["get_filter_negatives"] != 150 || c["get_block_misses"] != 0 {
		t.Fatalf("get_filter_negatives %d, get_block_misses %d; want 150, 0",
			c["get_filter_negatives"], c["get_block_misses"])
	}
}

func TestApproximateSize(t *testing.T) {
	db := openTest(t, Options{})
	rng := rand.New(rand.NewSource(53))
	val := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		rng.Read(val)
		db.Put([]byte(fmt.Sprintf("key%06d", i)), val)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := db.ApproximateSize(nil, nil)
	if whole < 50<<10 {
		t.Fatalf("whole-range estimate %d implausibly small", whole)
	}
	half := db.ApproximateSize([]byte("key000000"), []byte("key000500"))
	if half == 0 || half > whole {
		t.Fatalf("half-range estimate %d vs whole %d", half, whole)
	}
	none := db.ApproximateSize([]byte("zzz"), nil)
	if none != 0 {
		t.Fatalf("empty-range estimate %d", none)
	}
}

func TestCheckpoint(t *testing.T) {
	db := openTest(t, smallOpts())
	want := fillRandom(t, db, 2500, 80, 61)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir() + "/checkpoint"
	if err := db.Checkpoint(dest); err != nil {
		t.Fatal(err)
	}
	// Mutate the source after the checkpoint.
	for k := range want {
		db.Put([]byte(k), []byte("mutated"))
		break
	}

	cp, err := Open(dest, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	verifyAll(t, cp, want)
	// The checkpoint is writable and independent.
	if err := cp.Put([]byte("new-in-checkpoint"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("new-in-checkpoint")); err != ErrNotFound {
		t.Fatal("checkpoint write leaked into the source store")
	}
}

func TestCheckpointRefusesExistingDir(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Checkpoint(t.TempDir()); err == nil {
		t.Fatal("existing destination accepted")
	}
}

func TestRepairRebuildsManifest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Unique keys: Repair approximates cross-table recency by file number
	// (documented limitation), so overwritten keys may surface stale
	// versions; fresh keys are recovered exactly.
	want := map[string]string{}
	rng := rand.New(rand.NewSource(91))
	val := make([]byte, 80)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key%08d", i)
		rng.Read(val)
		if err := db.Put([]byte(k), val); err != nil {
			t.Fatal(err)
		}
		want[k] = string(val)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the metadata.
	os.Remove(dir + "/CURRENT")
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if kind, _ := parseFileName(e.Name()); kind == kindManifest {
			os.Remove(dir + "/" + e.Name())
		}
	}
	// NOTE: opening without repairing would create a fresh empty DB and
	// garbage-collect the orphaned tables — Repair must run first.
	if err := Repair(dir, smallOpts()); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verifyAll(t, db2, want)
}

func TestRepairQuarantinesCorruptTables(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	db.Flush()
	db.Close()
	// Corrupt one table beyond recognition.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if kind, _ := parseFileName(e.Name()); kind == kindTable {
			os.WriteFile(dir+"/"+e.Name(), []byte("garbage"), 0o644)
			break
		}
	}
	if err := Repair(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	found := false
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if len(e.Name()) > 8 && e.Name()[len(e.Name())-8:] == ".corrupt" {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupt table was not quarantined")
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
}

// TestRepairReportsFailedQuarantine: a damaged table that cannot be moved
// aside is in no version and still named like a live table, so the next
// Open would unlink it. Repair must say so and leave it where it is. A
// non-empty directory in the quarantine name's place fails the rename
// even for root.
func TestRepairReportsFailedQuarantine(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var damaged string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if kind, _ := parseFileName(e.Name()); kind == kindTable {
			damaged = filepath.Join(dir, e.Name())
		}
	}
	if damaged == "" {
		t.Fatal("flush left no table")
	}
	if err := os.WriteFile(damaged, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(damaged+".corrupt", "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	err = Repair(dir, Options{})
	if err == nil || !strings.HasPrefix(err.Error(), "lsm: repair: ") {
		t.Fatalf("Repair with a blocked quarantine: err = %v, want an lsm: repair: error", err)
	}
	if got, err := os.ReadFile(damaged); err != nil || string(got) != "garbage" {
		t.Fatalf("the damaged table is gone from %s: %q, %v", damaged, got, err)
	}
}

// TestRepairedStoreCompacts: Repair puts recovered tables at L0, each its
// own run, so a repaired leveled store merges them like flushed tables.
// Placed at L1, four overlapping tables read as one sorted run and the
// first leveled merge out of L1 failed with "keys out of order".
func TestRepairedStoreCompacts(t *testing.T) {
	dir := t.TempDir()
	opts := Options{L0CompactionTrigger: 12, L0SlowdownTrigger: 20, L0StopTrigger: 24,
		DispatchConfig: DispatchConfig{Workers: 1}}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for flush := 0; flush < 4; flush++ {
		for i := flush * 100; i < 2000; i++ {
			k, v := fmt.Sprintf("key%05d", i), fmt.Sprintf("value-%d-%d", flush, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if kind, _ := parseFileName(e.Name()); kind == kindManifest || kind == kindCurrent {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := Repair(dir, opts); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	verifyAll(t, db2, want)
	if err := db2.CompactLevel(0); err != nil {
		t.Fatalf("CompactLevel(0): %v", err)
	}
	verifyAll(t, db2, want)
	for step := 1; db2.LevelFiles()[1] > 0; step++ {
		if step > 20 {
			t.Fatalf("L1 still holds %d tables after 20 merges", db2.LevelFiles()[1])
		}
		if err := db2.CompactLevel(1); err != nil {
			t.Fatalf("CompactLevel(1) #%d: %v", step, err)
		}
		verifyAll(t, db2, want)
	}
}

// TestGetReturnsACopy: what Get returns is the caller's. Writing into it
// must not reach the stored entry, wherever the read found it.
func TestGetReturnsACopy(t *testing.T) {
	db := openTest(t, Options{})
	key := []byte("k")
	if err := db.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	scribble := func(where string, get func() ([]byte, error)) {
		t.Helper()
		for read := 0; read < 2; read++ {
			got, err := get()
			if err != nil || string(got) != "value" {
				t.Fatalf("%s, read %d: Get = %q, %v; want %q", where, read, got, err, "value")
			}
			got[0] = 'X'
		}
	}
	scribble("memtable", func() ([]byte, error) { return db.Get(key) })
	scribble("memtable through a snapshot", func() ([]byte, error) { return snap.Get(key) })
	scribble("immutable memtable", func() ([]byte, error) {
		rs, err := db.acquire()
		if err != nil {
			return nil, err
		}
		defer db.release(rs)
		// Where a rotation would leave the two memtables.
		rs.mem, rs.imm = memtable.New(0), rs.mem
		return db.getAt(key, rs.seq, rs)
	})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	scribble("table", func() ([]byte, error) { return db.Get(key) })
}
