package core

import (
	"bytes"
	"fmt"
	"testing"
)

func TestInputImageRoundTrip(t *testing.T) {
	b := NewInputBuilder(64)
	b.BeginTable()
	b.AddBlock([]byte("key-a"), 1, []byte("payload-one"))
	b.AddBlock([]byte("key-b"), 0, []byte("payload-two-longer"))
	b.BeginTable()
	b.AddBlock([]byte("key-c"), 1, []byte("p3"))
	img := b.Finish()

	if len(img.Tables) != 2 {
		t.Fatalf("tables = %d", len(img.Tables))
	}
	if img.Tables[0].NumBlocks != 2 || img.Tables[1].NumBlocks != 1 {
		t.Fatalf("block counts = %d, %d", img.Tables[0].NumBlocks, img.Tables[1].NumBlocks)
	}

	entries, err := img.DecodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("index entries = %d", len(entries))
	}
	if string(entries[0].IndexKey) != "key-a" || string(entries[1].IndexKey) != "key-b" {
		t.Fatalf("keys = %q, %q", entries[0].IndexKey, entries[1].IndexKey)
	}
	// Recover block one: ctype byte + payload at the recorded offset.
	e := entries[0]
	raw := img.DataMem[e.Offset : e.Offset+e.Size]
	if raw[0] != 1 || !bytes.Equal(raw[1:], []byte("payload-one")) {
		t.Fatalf("block payload = %x", raw)
	}
}

func TestInputImageAlignment(t *testing.T) {
	// Data blocks must be WIn-aligned (paper Fig 7).
	for _, align := range []int{8, 16, 64} {
		b := NewInputBuilder(align)
		b.BeginTable()
		b.AddBlock([]byte("k1"), 0, []byte("xyz"))
		b.AddBlock([]byte("k2"), 0, []byte("0123456789abcdef0123"))
		img := b.Finish()
		entries, err := img.DecodeIndex(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if e.Offset%uint64(align) != 0 {
				t.Fatalf("align=%d: block %d at offset %d", align, i, e.Offset)
			}
		}
		if len(img.DataMem)%align != 0 {
			t.Fatalf("align=%d: data memory length %d not padded", align, len(img.DataMem))
		}
	}
}

func TestDecodeIndexErrors(t *testing.T) {
	img := &InputImage{}
	if _, err := img.DecodeIndex(0); err == nil {
		t.Fatal("out-of-range table accepted")
	}
	// Corrupt index stream.
	img = &InputImage{
		Tables:   []TableDesc{{IndexOff: 0, IndexLen: 3, NumBlocks: 1}},
		IndexMem: []byte{0xff, 0xff, 0xff},
	}
	if _, err := img.DecodeIndex(0); err == nil {
		t.Fatal("corrupt index stream accepted")
	}
}

func TestImageBytesAccounting(t *testing.T) {
	b := NewInputBuilder(8)
	b.BeginTable()
	b.AddBlock([]byte("k"), 0, bytes.Repeat([]byte("x"), 1000))
	img := b.Finish()
	if img.Bytes() < 1000 {
		t.Fatalf("Bytes = %d", img.Bytes())
	}
}

func TestMetaInRoundTrip(t *testing.T) {
	b := NewInputBuilder(16)
	b.BeginTable()
	b.AddBlock([]byte("a"), 0, []byte("one"))
	b.AddBlock([]byte("b"), 1, []byte("two"))
	b.BeginTable()
	b.AddBlock([]byte("c"), 0, []byte("three"))
	img := b.Finish()

	got, err := DecodeMetaIn(EncodeMetaIn(img))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(img.Tables) {
		t.Fatalf("decoded %d tables", len(got))
	}
	for i := range got {
		if got[i] != img.Tables[i] {
			t.Fatalf("table %d: %+v != %+v", i, got[i], img.Tables[i])
		}
	}
	if _, err := DecodeMetaIn([]byte{1, 2}); err == nil {
		t.Fatal("short MetaIn accepted")
	}
	if _, err := DecodeMetaIn([]byte{9, 0, 0, 0, 1}); err == nil {
		t.Fatal("inconsistent MetaIn accepted")
	}
}

// NewInputBuilder returns a builder aligning data blocks to wIn bytes, in
// heap memory.
func NewInputBuilder(wIn int) *InputBuilder {
	return NewInputBuilderArena(wIn, nil)
}

// DecodeIndex parses a table's full index stream.
func (im *InputImage) DecodeIndex(table int) ([]IndexEntry, error) {
	if table < 0 || table >= len(im.Tables) {
		return nil, fmt.Errorf("%w: table %d out of range", ErrLayout, table)
	}
	t := im.Tables[table]
	idx, err := im.IndexSlice(t)
	if err != nil {
		return nil, err
	}
	s := indexStream{buf: idx}
	var out []IndexEntry
	for !s.empty() {
		e, err := s.next()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if len(out) != t.NumBlocks {
		return nil, fmt.Errorf("%w: table %d has %d index entries, descriptor says %d",
			ErrLayout, table, len(out), t.NumBlocks)
	}
	return out, nil
}
