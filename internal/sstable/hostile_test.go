package sstable

import (
	"errors"
	"testing"

	"fcae/internal/corruption"
	"fcae/internal/keys"
)

// withFooter returns body followed by f.
func withFooter(body []byte, f Footer) memFile {
	return append(append(memFile(nil), body...), f.Encode()...)
}

// withForgedIndex returns body followed by a correctly sealed index block
// whose one entry maps every key to h(size of the returned file), and a
// footer naming that block: what a checksum cannot catch. The file's size
// depends on how wide h's varints are, hence the loop to a fixed point.
func withForgedIndex(body []byte, meta Handle, h func(size uint64) Handle) memFile {
	sep := keys.MakeInternal(nil, []byte("\xff"), keys.MaxSeq, keys.KindSet)
	size := uint64(0)
	for {
		index := newBlockBuilder(1)
		index.add(sep, h(size).EncodeTo(nil))
		contents := index.finish()
		var trailer [BlockTrailerSize]byte
		sealBlock(&trailer, byte(NoCompression), contents)
		out := append(append(append([]byte(nil), body...), contents...), trailer[:]...)
		f := withFooter(out, Footer{MetaIndex: meta, Index: Handle{Offset: uint64(len(body)), Size: uint64(len(contents))}})
		if uint64(len(f)) == size {
			return f
		}
		size = uint64(len(f))
	}
}

// TestHostileHandleIsBounded: a block handle is outside every checksum
// when it sits in the footer, and inside one an attacker can recompute
// when it sits in the index. Whatever it says, reading through it is an
// error of the corruption class — not a panic, and not an allocation of
// the size it names.
func TestHostileHandleIsBounded(t *testing.T) {
	table, _ := buildTable(t, Options{FilterBitsPerKey: 10}, seqEntries(200, 50))
	body := table[:len(table)-FooterSize]
	good, err := DecodeFooter(table[len(body):])
	if err != nil {
		t.Fatal(err)
	}
	hostile := []struct {
		name string
		h    func(size uint64) Handle
	}{
		{"oversized", func(uint64) Handle { return Handle{Offset: 0, Size: 1 << 62} }},
		{"a terabyte", func(uint64) Handle { return Handle{Offset: 0, Size: 1 << 40} }},
		{"offset+size wraps", func(uint64) Handle { return Handle{Offset: ^uint64(0) - 2, Size: 8} }},
		{"size+trailer wraps", func(uint64) Handle { return Handle{Offset: 0, Size: ^uint64(0) - 2} }},
		{"starts past the file", func(size uint64) Handle { return Handle{Offset: size + 1, Size: 16} }},
		{"trailer past the file", func(size uint64) Handle { return Handle{Offset: size - BlockTrailerSize, Size: 1} }},
	}
	isCorruption := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, corruption.Err) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want one of the corruption class", what, err)
		}
	}
	for _, tc := range hostile {
		t.Run(tc.name, func(t *testing.T) {
			size := uint64(len(table))
			for what, footer := range map[string]Footer{
				"footer index handle":     {MetaIndex: good.MetaIndex, Index: tc.h(size)},
				"footer metaindex handle": {MetaIndex: tc.h(size), Index: good.Index},
			} {
				_, err := NewReader(withFooter(body, footer), int64(size), Options{}, nil, 1)
				isCorruption(t, what+", NewReader", err)
			}

			f := withForgedIndex(body, good.MetaIndex, tc.h)
			r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
			if err != nil {
				t.Fatalf("index entry handle: NewReader: %v", err)
			}
			_, _, _, err = r.Get([]byte("key00000007"), keys.MaxSeq)
			isCorruption(t, "index entry handle, Get", err)
			it := r.NewIterator()
			it.SeekToFirst()
			if it.Valid() {
				t.Error("index entry handle: iterator is valid")
			}
			isCorruption(t, "index entry handle, iterator", it.Error())
			var sc BlockScanner
			sc.Reset(r)
			_, ok, err := sc.NextRaw()
			if ok {
				t.Error("index entry handle: BlockScanner returned a block")
			}
			isCorruption(t, "index entry handle, BlockScanner", err)
		})
	}
}
