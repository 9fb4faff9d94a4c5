package snappy_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/snappy"
	"fcae/internal/sstable"
)

type memFile []byte

func (m memFile) ReadAt(p []byte, off int64) (int, error) { return copy(p, m[off:]), nil }

// TestTablesReadAcrossCodecs is the compatibility promise at table level:
// every compressed block of a table the store writes now decodes with the
// codec it had before the kernel rewrite, and a table whose blocks that
// codec compressed reads back through today's reader.
func TestTablesReadAcrossCodecs(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	opts := sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}
	type entry struct{ key, val []byte }
	var entries []entry
	for i := 0; i < 3000; i++ {
		half := make([]byte, 60)
		rng.Read(half)
		entries = append(entries, entry{
			keys.MakeInternal(nil, []byte(fmt.Sprintf("%016d", i)), uint64(i+1), keys.KindSet),
			append(half, half...),
		})
	}

	// Written by today's encoder, read by the reference decoder.
	var buf bytes.Buffer
	w := sstable.NewWriter(&buf, opts)
	for _, e := range entries {
		if err := w.Add(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := sstable.NewReader(memFile(buf.Bytes()), int64(buf.Len()), opts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	type rawBlock struct {
		indexKey, contents []byte
		entries            int
	}
	var blocks []rawBlock
	err = r.VisitRawBlocks(func(b sstable.RawBlock) error {
		if sstable.Compression(b.CType) != sstable.SnappyCompression {
			return fmt.Errorf("half-compressible block stored with compression type %d", b.CType)
		}
		old, err := snappy.RefDecode(nil, b.Payload)
		if err != nil {
			return fmt.Errorf("reference decoder: %w", err)
		}
		cur, err := snappy.Decode(nil, b.Payload)
		if err != nil || !bytes.Equal(old, cur) {
			return fmt.Errorf("decoders disagree on a block (err=%v)", err)
		}
		it, err := sstable.NewBlockIter(old)
		if err != nil {
			return err
		}
		n := 0
		var last []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			last = append(last[:0], it.Key()...)
			n++
		}
		blocks = append(blocks, rawBlock{append([]byte(nil), last...), old, n})
		return it.Error()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Compressed by the reference encoder, read by today's reader.
	var abuf bytes.Buffer
	a := sstable.NewAssembler(&abuf, opts)
	for _, b := range blocks {
		if err := a.AddRawBlock(b.indexKey, byte(sstable.SnappyCompression), snappy.RefEncode(nil, b.contents), b.entries); err != nil {
			t.Fatal(err)
		}
	}
	a.SetBounds(entries[0].key, entries[len(entries)-1].key)
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	r2, err := sstable.NewReader(memFile(abuf.Bytes()), int64(abuf.Len()), opts, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	it := r2.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i >= len(entries) || !bytes.Equal(it.Key(), entries[i].key) || !bytes.Equal(it.Value(), entries[i].val) {
			t.Fatalf("entry %d of the reference-encoded table reads back wrong", i)
		}
		i++
	}
	if err := it.Error(); err != nil || i != len(entries) {
		t.Fatalf("read %d of %d entries, err=%v", i, len(entries), err)
	}
}
