package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fcae/internal/keys"
)

// Tables reach their file a region at a time and leave it a window at a
// time. The counts below repeat exactly — they depend on the table's
// bytes and two constants, not on the clock — so they are ordinary tests.

// bulkEntries is a deterministic 3.2 MiB of entries whose 1 KiB values
// come in runs of sixteen, three runs half-compressible and one random, so
// the table built from them has blocks stored both ways.
func bulkEntries() (ikeys, values [][]byte) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 3200; i++ {
		v := make([]byte, 1024)
		rng.Read(v)
		if i/16%4 < 3 {
			copy(v[512:], v[:512])
		}
		ikeys = append(ikeys, keys.MakeInternal(nil, []byte(fmt.Sprintf("key%08d", i)), uint64(i+1), keys.KindSet))
		values = append(values, v)
	}
	return ikeys, values
}

// writeBulkTable writes bulkEntries to f as one table.
func writeBulkTable(t *testing.T, f io.Writer, opts Options) WriterStats {
	t.Helper()
	ikeys, values := bulkEntries()
	w := NewWriter(f, opts)
	for i := range ikeys {
		if err := w.Add(ikeys[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// countingWriter records the size of every Write it is handed.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// bulkTableDigest is the SHA-256 of the table bulkEntries builds under
// snappy with a filter, recorded at d82f90d, where every block went to
// the file in a write of its own.
const bulkTableDigest = "f3e72f7a8930eb173d2d7da259fc7310854b100858482c6cb24d87c8ab139cc2"

// TestWriterWritesByRegion: a 2 MiB table is handed to its file in at
// most ⌈size / region⌉ + 1 writes, every one but the last a full region,
// and is byte for byte the table the block-at-a-time writer made.
func TestWriterWritesByRegion(t *testing.T) {
	var f countingWriter
	stats := writeBulkTable(t, &f, Options{Compression: SnappyCompression, FilterBitsPerKey: 10})
	size := f.Len()
	if int64(size) != stats.FileSize || size < 2<<20 {
		t.Fatalf("file is %d bytes, stats say %d, want at least 2 MiB", size, stats.FileSize)
	}
	if limit := (size+regionSize-1)/regionSize + 1; len(f.writes) > limit {
		t.Errorf("%d bytes reached the file in %d writes, want at most %d", size, len(f.writes), limit)
	}
	for i, n := range f.writes[:len(f.writes)-1] {
		if n < regionSize {
			t.Errorf("write %d of %d carried %d bytes, less than a region", i, len(f.writes), n)
		}
	}
	if sum := sha256.Sum256(f.Bytes()); hex.EncodeToString(sum[:]) != bulkTableDigest {
		t.Errorf("table digest %x, want %s: the bytes moved", sum, bulkTableDigest)
	}
	r, err := NewReader(memFile(f.Bytes()), int64(size), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var stored [2]int
	if err := r.VisitRawBlocks(func(b RawBlock) error { stored[b.CType]++; return nil }); err != nil {
		t.Fatal(err)
	}
	if stored[NoCompression] == 0 || stored[SnappyCompression] == 0 {
		t.Errorf("blocks stored raw / compressed: %v, want some of each", stored)
	}
}

// failAfterWriter accepts limit bytes, then fails every Write.
type failAfterWriter struct {
	limit, written int
	err            error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

// TestDeferredWriteErrorSurfaces: a block's write now happens when its
// region fills, so the failure comes back from a later Add, or from
// Finish — from one of them, whichever side of a region boundary the
// file gives out on, for the Writer and for the engine's Assembler.
func TestDeferredWriteErrorSurfaces(t *testing.T) {
	ikeys, values := bulkEntries()
	var whole countingWriter
	writeBulkTable(t, &whole, Options{Compression: SnappyCompression})
	var blocks []RawBlock // the same table's blocks, for the Assembler
	r, err := NewReader(memFile(whole.Bytes()), int64(whole.Len()), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = r.VisitRawBlocks(func(b RawBlock) error {
		blocks = append(blocks, RawBlock{IndexKey: bytes.Clone(b.IndexKey), CType: b.CType, Payload: bytes.Clone(b.Payload)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	first := whole.writes[0] // where the first region ends
	injected := errors.New("injected write failure")
	for _, limit := range []int{0, 1, first - 1, first, first + 1, first + whole.writes[1], whole.Len() - 1} {
		t.Run(fmt.Sprintf("writer/limit=%d", limit), func(t *testing.T) {
			w := NewWriter(&failAfterWriter{limit: limit, err: injected}, Options{Compression: SnappyCompression})
			var got error
			for i := range ikeys {
				if got = w.Add(ikeys[i], values[i]); got != nil {
					break
				}
			}
			if got == nil {
				_, got = w.Finish()
			} else if _, again := w.Finish(); again != got {
				t.Errorf("Finish after a failed Add = %v, want the same %v", again, got)
			}
			if !errors.Is(got, injected) {
				t.Fatalf("neither Add nor Finish returned the write's error: %v", got)
			}
		})
		t.Run(fmt.Sprintf("assembler/limit=%d", limit), func(t *testing.T) {
			a := NewAssembler(&failAfterWriter{limit: limit, err: injected}, Options{})
			var got error
			for _, b := range blocks {
				if got = a.AddRawBlock(b.IndexKey, b.CType, b.Payload, 1); got != nil {
					break
				}
			}
			if got == nil {
				_, got = a.Finish()
			}
			if !errors.Is(got, injected) {
				t.Fatalf("neither AddRawBlock nor Finish returned the write's error: %v", got)
			}
		})
	}
}

// countingFile counts ReadAt calls and ends like a file does: a read
// reaching past its end returns what there is and io.EOF.
type countingFile struct {
	data  []byte
	reads int
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads++
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// dataEnd is where r's data blocks stop: the end of the last one indexed.
func dataEnd(t *testing.T, r *Reader) int64 {
	t.Helper()
	it := r.index.iter()
	it.SeekToLast()
	h, _, err := DecodeHandle(it.Value())
	if err != nil {
		t.Fatal(err)
	}
	return int64(h.Offset+h.Size) + BlockTrailerSize
}

// TestScannerReadsByWindow: a whole-table scan costs at most
// ⌈data bytes / window⌉ + 1 reads and sees every block.
func TestScannerReadsByWindow(t *testing.T) {
	ikeys, values := bulkEntries()
	var buf bytes.Buffer
	stats := writeBulkTable(t, &buf, Options{Compression: SnappyCompression, FilterBitsPerKey: 10})
	f := &countingFile{data: buf.Bytes()}
	r, err := NewReader(f, int64(buf.Len()), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := dataEnd(t, r)
	f.reads = 0
	var sc BlockScanner
	var scratch []byte
	var it BlockIter
	sc.Reset(r)
	blocks, entries := 0, 0
	for {
		b, ok, err := sc.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		contents, err := DecodeBlock(&scratch, b.CType, b.Payload)
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		if err := it.Reset(contents); err != nil {
			t.Fatal(err)
		}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if !bytes.Equal(it.Key(), ikeys[entries]) || !bytes.Equal(it.Value(), values[entries]) {
				t.Fatalf("entry %d differs from what was written", entries)
			}
			entries++
		}
	}
	if blocks != stats.DataBlocks || entries != len(ikeys) {
		t.Fatalf("scanned %d blocks, %d entries; table has %d, %d", blocks, entries, stats.DataBlocks, len(ikeys))
	}
	if limit := int((data+scanWindow-1)/scanWindow) + 1; f.reads > limit {
		t.Errorf("%d data bytes in %d blocks cost %d reads, want at most %d", data, blocks, f.reads, limit)
	}
	if cap(sc.win) > buf.Len() || cap(sc.win) > scanWindow {
		t.Errorf("window holds %d bytes; the file is %d and no block exceeds the window's %d", cap(sc.win), buf.Len(), scanWindow)
	}
}

// reindexed returns table with its index block replaced by one that lists
// the same separators over the data blocks' handles in reverse: every
// checksum in the file holds, and no handle is where a forward walk
// expects it.
func reindexed(t *testing.T, table memFile) memFile {
	t.Helper()
	r, err := NewReader(table, int64(len(table)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	footer, err := DecodeFooter(table[len(table)-FooterSize:])
	if err != nil {
		t.Fatal(err)
	}
	var seps, handles [][]byte
	it := r.index.iter()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		seps = append(seps, bytes.Clone(it.Key()))
		handles = append(handles, bytes.Clone(it.Value()))
	}
	index := newBlockBuilder(1)
	for i, sep := range seps {
		index.add(sep, handles[len(handles)-1-i])
	}
	contents := index.finish()
	var trailer [BlockTrailerSize]byte
	sealBlock(&trailer, byte(NoCompression), contents)
	body := table[:len(table)-FooterSize]
	out := append(append(append(memFile(nil), body...), contents...), trailer[:]...)
	return withFooter(out, Footer{MetaIndex: footer.MetaIndex, Index: Handle{Offset: uint64(len(body)), Size: uint64(len(contents))}})
}

// TestScannerChecksBlocksOutOfOrder: a forged index that walks the file
// backwards takes the scanner out of its window at every step. It still
// returns every block the index names, in the index's order, and still
// checksums each one.
func TestScannerChecksBlocksOutOfOrder(t *testing.T) {
	table, stats := buildTable(t, Options{BlockSize: 512, Compression: SnappyCompression}, seqEntries(600, 64))
	var forward [][]byte
	r, err := NewReader(table, int64(len(table)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VisitRawBlocks(func(b RawBlock) error {
		forward = append(forward, bytes.Clone(b.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(forward) != stats.DataBlocks || len(forward) < 8 {
		t.Fatalf("want a table of many blocks, got %d of %d", len(forward), stats.DataBlocks)
	}

	forged := reindexed(t, table)
	scan := func(f memFile) (payloads [][]byte, err error) {
		r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		err = r.VisitRawBlocks(func(b RawBlock) error {
			payloads = append(payloads, bytes.Clone(b.Payload))
			return nil
		})
		return payloads, err
	}
	got, err := scan(forged)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(forward) {
		t.Fatalf("scanned %d blocks through the forged index, table has %d", len(got), len(forward))
	}
	for i := range got {
		if !bytes.Equal(got[i], forward[len(forward)-1-i]) {
			t.Fatalf("block %d of the backward walk is not block %d of the file", i, len(forward)-1-i)
		}
	}

	// Damage the file's second block: the backward walk reaches it last
	// but one, and must stop there.
	h, _, err := DecodeHandle(func() []byte { it := r.index.iter(); it.SeekToFirst(); it.Next(); return it.Value() }())
	if err != nil {
		t.Fatal(err)
	}
	forged[h.Offset+h.Size/2] ^= 0x10
	got, err = scan(forged)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over a damaged block: %v, want ErrCorrupt", err)
	}
	if len(got) != len(forward)-2 {
		t.Errorf("scan returned %d blocks before the damaged one, want %d", len(got), len(forward)-2)
	}
}

// TestShortFileIsCorruption: the reader is told the table's size — by the
// manifest, for a compaction — and a file that ends before it is damaged,
// not finished. Footer, block and window reads all say ErrCorrupt, and a
// window cut short by the file's end still serves the blocks it holds.
func TestShortFileIsCorruption(t *testing.T) {
	table, stats := buildTable(t, Options{BlockSize: 512}, seqEntries(600, 64))
	size := int64(len(table))

	// Everything is missing from some point in the data on: no footer.
	_, err := NewReader(&countingFile{data: table[:size/2]}, size, Options{}, nil, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NewReader over half a file: %v, want ErrCorrupt", err)
	}

	// The file shrinks under an open reader, mid-way through its last
	// data block.
	f := &countingFile{data: table}
	r, err := NewReader(f, size, Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.data = table[:dataEnd(t, r)-BlockTrailerSize-1]

	it := r.NewIterator()
	it.SeekToLast()
	if it.Valid() || !errors.Is(it.Error(), ErrCorrupt) {
		t.Errorf("iterator at the cut block: valid=%v err=%v, want ErrCorrupt", it.Valid(), it.Error())
	}
	blocks := 0
	err = r.VisitRawBlocks(func(RawBlock) error { blocks++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("scan to the cut block: %v, want ErrCorrupt", err)
	}
	if blocks != stats.DataBlocks-1 {
		t.Errorf("scan returned %d blocks before the cut one, want the %d that are whole", blocks, stats.DataBlocks-1)
	}
}
