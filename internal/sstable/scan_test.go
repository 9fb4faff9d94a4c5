package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"fcae/internal/keys"
)

// A table written with a low bits-per-key must still filter correctly at
// read time: the probe count travels in the stored filter, so the reader
// needs no policy configuration (and must not assume the default 10).
func TestReaderGetFilterBitsPerKey4(t *testing.T) {
	entries := seqEntries(200, 16)
	f, _ := buildTable(t, Options{FilterBitsPerKey: 4}, entries)
	r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.filter == nil {
		t.Fatal("table built with FilterBitsPerKey=4 has no filter block")
	}
	for _, e := range entries {
		v, deleted, found, err := r.Get([]byte(e.user), keys.MaxSeq)
		if err != nil {
			t.Fatal(err)
		}
		if !found || deleted {
			t.Fatalf("Get(%q): found=%v deleted=%v, want present", e.user, found, deleted)
		}
		if string(v) != e.value {
			t.Fatalf("Get(%q) = %q, want %q", e.user, v, e.value)
		}
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("absent%08d", i)
		if _, _, found, err := r.Get([]byte(k), keys.MaxSeq); err != nil {
			t.Fatal(err)
		} else if found {
			t.Fatalf("Get(%q) found a key that was never written", k)
		}
	}
}

// BlockScanner must surface every entry of every data block in table
// order, for both codecs, reusing caller buffers.
func TestBlockScannerWalksAllBlocks(t *testing.T) {
	for _, comp := range []Compression{NoCompression, SnappyCompression} {
		t.Run(fmt.Sprintf("compression=%d", comp), func(t *testing.T) {
			entries := seqEntries(500, 64)
			f, stats := buildTable(t, Options{BlockSize: 512, Compression: comp}, entries)
			r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if stats.DataBlocks < 4 {
				t.Fatalf("want a multi-block table, got %d blocks", stats.DataBlocks)
			}
			var sc BlockScanner
			var bufs [2][]byte // alternate to prove reuse is safe per-block
			sc.Reset(r)
			var it BlockIter
			first := true
			var got int
			blocks := 0
			for {
				b, ok, err := sc.NextRaw()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				contents, err := DecodeBlock(&bufs[blocks%2], b.CType, b.Payload)
				if err != nil {
					t.Fatal(err)
				}
				blocks++
				if first {
					bi, err := NewBlockIter(contents)
					if err != nil {
						t.Fatal(err)
					}
					it = *bi
					first = false
				} else if err := it.Reset(contents); err != nil {
					t.Fatal(err)
				}
				for it.SeekToFirst(); it.Valid(); it.Next() {
					e := entries[got]
					if string(keys.UserKey(it.Key())) != e.user || string(it.Value()) != e.value {
						t.Fatalf("entry %d: got (%q,%q), want (%q,%q)",
							got, keys.UserKey(it.Key()), it.Value(), e.user, e.value)
					}
					got++
				}
				if err := it.Error(); err != nil {
					t.Fatal(err)
				}
			}
			if blocks != stats.DataBlocks {
				t.Fatalf("scanned %d blocks, table has %d", blocks, stats.DataBlocks)
			}
			if got != len(entries) {
				t.Fatalf("scanned %d entries, want %d", got, len(entries))
			}
		})
	}
}

// TestBlockScannerSeek walks the index with NextHandle and then seeks to
// every block's index key and to the key just after it: a seek lands on
// the first block whose index key is at or past the target, reads nothing
// before it, and a seek past the last index key finds no block. NumBlocks
// counts what NextHandle walks.
func TestBlockScannerSeek(t *testing.T) {
	f, stats := buildTable(t, Options{BlockSize: 512}, seqEntries(500, 64))
	r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sc BlockScanner
	var index [][]byte
	var offsets []uint64
	for sc.Reset(r); ; {
		h, ok, err := sc.NextHandle()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		index = append(index, append([]byte(nil), sc.Key()...))
		offsets = append(offsets, h.Offset)
	}
	if len(index) != stats.DataBlocks || r.NumBlocks() != stats.DataBlocks {
		t.Fatalf("NextHandle walked %d blocks, NumBlocks %d, table has %d", len(index), r.NumBlocks(), stats.DataBlocks)
	}
	for i, k := range index {
		past := keys.MakeInternal(nil, append(bytes.Clone(keys.UserKey(k)), 0), keys.MaxSeq, keys.KindSet)
		for _, tc := range []struct {
			target []byte
			block  int
		}{{k, i}, {past, i + 1}} {
			sc.Seek(r, tc.target)
			b, ok, err := sc.NextRaw()
			if err != nil {
				t.Fatal(err)
			}
			if tc.block == len(index) {
				if ok {
					t.Fatalf("seek past the last index key %q found block %q", k, b.IndexKey)
				}
				continue
			}
			if !ok || string(b.IndexKey) != string(index[tc.block]) {
				t.Fatalf("seek to %q: block %q (ok %v), want %q", tc.target, b.IndexKey, ok, index[tc.block])
			}
			if h, _, _ := sc.NextHandle(); tc.block+1 < len(index) && h.Offset != offsets[tc.block+1] {
				t.Fatalf("after block %d the scanner is at offset %d, want %d", tc.block, h.Offset, offsets[tc.block+1])
			}
		}
	}
}
