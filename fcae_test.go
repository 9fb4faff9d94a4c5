package fcae_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fcae"
	"fcae/internal/lsm"
	"fcae/internal/manifest"
	"fcae/internal/sstable"
	"fcae/internal/wal"
)

func TestPublicAPIQuickstart(t *testing.T) {
	db, err := fcae.Open(t.TempDir(), fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("greeting"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("greeting"))
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Delete([]byte("greeting")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("greeting")); err != fcae.ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPublicAPIWithEngine(t *testing.T) {
	opts := fcae.Options{
		MemTableBytes:      32 << 10,
		BaseLevelBytes:     128 << 10,
		MaxOutputFileBytes: 32 << 10,
	}
	opts.DispatchConfig.Devices = []fcae.CompactionExecutor{fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig())}
	db, err := fcae.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i%2000)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.HWCompactions == 0 {
		t.Fatalf("engine executor ran no hardware compactions: %+v", st)
	}
	got, err := db.Get([]byte("key000042"))
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("Get after engine compactions: %v", err)
	}
}

func TestPublicAPIBatchAndIterator(t *testing.T) {
	db, err := fcae.Open(t.TempDir(), fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var b fcae.Batch
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
	}
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("iterated %d keys, want 10", n)
	}
}

func TestEngineConfigResources(t *testing.T) {
	cfg := fcae.DefaultEngineConfig()
	u := cfg.Resources()
	if u.LUT <= 0 || u.LUT > 100 {
		t.Fatalf("2-input engine should fit the chip: %+v", u)
	}
	big := cfg
	big.N, big.WIn, big.V = 9, 64, 8
	if big.Fits() {
		t.Fatal("N=9 at full AXI width must not fit (paper Table VII: 206% LUT)")
	}
	if _, err := fcae.NewEngineExecutor(fcae.EngineConfig{N: 1}); err == nil {
		t.Fatal("invalid engine config accepted")
	}
}

func TestSnapshotAPI(t *testing.T) {
	db, err := fcae.Open(t.TempDir(), fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("v1"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("v2"))
	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("snapshot Get = %q, %v", v, err)
	}
}

func TestPublicAPITieredMode(t *testing.T) {
	opts := fcae.Options{
		TieredRuns:         4,
		MemTableBytes:      32 << 10,
		BaseLevelBytes:     128 << 10,
		MaxOutputFileBytes: 32 << 10,
	}
	opts.DispatchConfig.Devices = []fcae.CompactionExecutor{fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig())}
	db, err := fcae.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("t"), 100)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%05d", i%1500)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.HWCompactions == 0 {
		t.Fatalf("tiered merges should run on the engine: %+v", st)
	}
	v, err := db.Get([]byte("key00042"))
	if err != nil || !bytes.Equal(v, val) {
		t.Fatalf("Get: %v", err)
	}
}

func TestPublicAPIRepairAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir() + "/cp"
	if err := db.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Wipe metadata and repair.
	os.Remove(dir + "/CURRENT")
	if err := fcae.Repair(dir, fcae.Options{}); err != nil {
		t.Fatal(err)
	}
	db2, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("repaired Get = %q, %v", v, err)
	}
	db3, err := fcae.Open(cp, fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if v, err := db3.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("checkpoint Get = %q, %v", v, err)
	}
}

// TestCorruptionClass: the four corruption sentinels a store can return
// are one class to a caller, and stay themselves to the code that
// already matches them.
func TestCorruptionClass(t *testing.T) {
	for _, sentinel := range []error{wal.ErrCorrupt, manifest.ErrCorruptEdit, sstable.ErrCorrupt, lsm.ErrBatchCorrupt} {
		wrapped := fmt.Errorf("reading: %w", sentinel)
		if !errors.Is(wrapped, fcae.ErrCorruption) {
			t.Errorf("%v is not fcae.ErrCorruption", sentinel)
		}
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("%v no longer matches itself", sentinel)
		}
	}
	if errors.Is(fcae.ErrNotFound, fcae.ErrCorruption) || errors.Is(wal.ErrCorrupt, sstable.ErrCorrupt) {
		t.Error("the class matches errors outside it, or the sentinels each other")
	}
}

// TestDamagedTableSurfacesAsCorruption flips one byte in a data block of
// a closed store's table: the key stored there must come back from the
// public API as ErrCorruption, not as a value, a miss or a panic.
func TestDamagedTableSurfacesAsCorruption(t *testing.T) {
	dir := t.TempDir()
	db, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "*.ldb"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("want one table, got %v, %v", tables, err)
	}
	data, err := os.ReadFile(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0x40 // the first data block starts at offset 0
	if err := os.WriteFile(tables[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = fcae.Open(dir, fcae.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, err := db.Get([]byte("k0000")); !errors.Is(err, fcae.ErrCorruption) {
		t.Fatalf("Get over a damaged block = %q, %v; want fcae.ErrCorruption", v, err)
	}
}

// TestShortTableFailsTheMergeAsCorruption cuts a live table to less than
// the size its manifest entry records and forces the merge that reads it,
// on the CPU lane and through the engine: the compaction sizes its inputs
// from the manifest, so the early end of file is damage and must come back
// as ErrCorruption — it came back as a bare io.EOF.
func TestShortTableFailsTheMergeAsCorruption(t *testing.T) {
	for _, lane := range []string{"cpu", "engine"} {
		t.Run(lane, func(t *testing.T) {
			dir := t.TempDir()
			var opts fcae.Options
			if lane == "engine" {
				opts.DispatchConfig.Devices = []fcae.CompactionExecutor{fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig())}
			}
			db, err := fcae.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Two overlapping level-0 tables: a merge, not a trivial move.
			for flush := 0; flush < 2; flush++ {
				for i := 0; i < 2000; i++ {
					if err := db.Put([]byte(fmt.Sprintf("k%05d", i*2+flush)), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			tables, err := filepath.Glob(filepath.Join(dir, "*.ldb"))
			if err != nil || len(tables) != 2 {
				t.Fatalf("want two tables, got %v, %v", tables, err)
			}
			st, err := os.Stat(tables[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(tables[0], st.Size()*2/3); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactLevel(0); !errors.Is(err, fcae.ErrCorruption) {
				t.Fatalf("merge over a table cut to two thirds of its recorded size: %v, want fcae.ErrCorruption", err)
			}
		})
	}
}
