package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"fcae/internal/corruption"
	"fcae/internal/vfs"
)

// TestOpenTableReadsLikeAFile: whatever openTable returns reads as
// os.File.ReadAt does — a read inside the file fills p, one that ends
// past the file returns the bytes there are and io.EOF, one that starts
// past it 0 and io.EOF — and after Close every read fails with
// fs.ErrClosed. On 64-bit linux the table must be mapped, so the contract
// is checked on the mapping and not on a file standing in for it.
func TestOpenTableReadsLikeAFile(t *testing.T) {
	data := make([]byte, 3*4096+100)
	rand.New(rand.NewSource(1)).Read(data)
	path := filepath.Join(t.TempDir(), "000001.ldb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, size, mapped, err := openTable(vfs.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("size %d, want %d", size, len(data))
	}
	if runtime.GOOS == "linux" && strconv.IntSize == 64 && mapped != size {
		t.Fatalf("%d of %d bytes mapped on a 64-bit linux host, want all", mapped, size)
	}
	ref, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, c := range []struct {
		off, n int
	}{
		{0, 100},
		{4000, 200},               // across a page boundary
		{len(data) - 50, 50},      // ends at the last byte
		{len(data) - 50, 80},      // ends past the file
		{len(data), 10},           // starts at the end
		{len(data) + 4096, 10},    // starts past the end
		{len(data) - 1, 0},        // empty
		{0, len(data) + 1},        // the whole file and one more
		{2 * 4096, len(data) - 1}, // from a page boundary past the end
	} {
		got, want := make([]byte, c.n), make([]byte, c.n)
		gn, gerr := f.ReadAt(got, int64(c.off))
		wn, werr := ref.ReadAt(want, int64(c.off))
		if gn != wn || gerr != werr || !bytes.Equal(got[:gn], want[:wn]) {
			t.Errorf("ReadAt(%d bytes at %d) = %d, %v; the file reads %d, %v", c.n, c.off, gn, gerr, wn, werr)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 10), 0); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("ReadAt after Close: %v, want fs.ErrClosed", err)
	}
}

// oneTable leaves db with a single L0 table of n keys k00000.. holding
// incompressible 1 KiB values, and returns the table's number and path.
func oneTable(t *testing.T, db *DB, n int) (uint64, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	val := make([]byte, 1024)
	for i := 0; i < n; i++ {
		rng.Read(val)
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	files := db.vs.Current().Levels[0]
	if len(files) != 1 {
		t.Fatalf("%d L0 tables, want 1", len(files))
	}
	return files[0].Num, tablePath(db.dir, files[0].Num)
}

// TestTruncatedMappedTableIsCorruption: a table cut short behind the
// store's back after the table cache opened it reads short through a file
// and faults through a mapping. Either way a Get and a scan that need a
// block past the new end say corruption; the mapping's fault must not
// kill the process.
func TestTruncatedMappedTableIsCorruption(t *testing.T) {
	db := openTest(t, Options{})
	_, path := oneTable(t, db, 2000)
	if _, err := db.Get([]byte("k00000")); err != nil { // opens (maps) the table
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k01990")); !errors.Is(err, corruption.Err) {
		t.Fatalf("Get past the cut: %v, want corruption", err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	if it.Seek([]byte("k01500")) {
		t.Fatalf("scan past the cut found %q", it.Key())
	}
	if err := it.Error(); !errors.Is(err, corruption.Err) {
		t.Fatalf("scan past the cut: %v, want corruption", err)
	}
	_ = it.Close()
}

// TestTableMappedBytesGauge: table_mapped_bytes counts a table from the
// Get that opens it until the last release of its handle, eviction from
// the cache notwithstanding.
func TestTableMappedBytesGauge(t *testing.T) {
	db := openTest(t, Options{})
	num, path := oneTable(t, db, 200)
	gauge := func() int64 { return int64(db.Metrics().Gauges["table_mapped_bytes"]) }
	if got := gauge(); got != 0 {
		t.Fatalf("table_mapped_bytes %d before any read, want 0", got)
	}
	f, _, want, err := openTable(vfs.Default, path) // what the cache will map of it
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if _, err := db.Get([]byte("k00100")); err != nil {
		t.Fatal(err)
	}
	if got := gauge(); got != want {
		t.Fatalf("table_mapped_bytes %d after a Get opened the table, want %d", got, want)
	}
	h, err := db.tables.get(num)
	if err != nil {
		t.Fatal(err)
	}
	db.tables.evict(num)
	if got := gauge(); got != want {
		t.Fatalf("table_mapped_bytes %d with the evicted table still held, want %d", got, want)
	}
	db.tables.release(h)
	if got := gauge(); got != 0 {
		t.Fatalf("table_mapped_bytes %d after the last release, want 0", got)
	}
}
