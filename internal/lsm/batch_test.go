package lsm

import (
	"bytes"
	"testing"

	"fcae/internal/keys"
)

func TestBatchEncodeIterate(t *testing.T) {
	var b Batch
	b.Put([]byte("alpha"), []byte("1"))
	b.Delete([]byte("beta"))
	b.Put([]byte("gamma"), []byte("3"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	rep := b.seal(100)

	type rec struct {
		seq   uint64
		kind  keys.Kind
		key   string
		value string
	}
	var got []rec
	err := batchIterate(rep, func(seq uint64, kind keys.Kind, key, value []byte) error {
		got = append(got, rec{seq, kind, string(key), string(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{
		{100, keys.KindSet, "alpha", "1"},
		{101, keys.KindDelete, "beta", ""},
		{102, keys.KindSet, "gamma", "3"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBatchSeqHeader(t *testing.T) {
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	rep := b.seal(42)
	seq, count, err := batchSeq(rep)
	if err != nil || seq != 42 || count != 1 {
		t.Fatalf("batchSeq = %d, %d, %v", seq, count, err)
	}
}

func TestBatchReset(t *testing.T) {
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear the batch")
	}
	b.Put([]byte("k2"), []byte("v2"))
	rep := b.seal(1)
	n := 0
	batchIterate(rep, func(seq uint64, kind keys.Kind, key, value []byte) error {
		n++
		if !bytes.Equal(key, []byte("k2")) {
			t.Errorf("stale record after reset: %q", key)
		}
		return nil
	})
	if n != 1 {
		t.Fatalf("%d records after reset", n)
	}
}

// TestBatchReuseAllocatesNothing: a batch refilled after Reset writes
// into the buffer it already grew.
func TestBatchReuseAllocatesNothing(t *testing.T) {
	var b Batch
	key, value := make([]byte, 16), make([]byte, 256)
	fill := func() {
		b.Reset()
		for i := 0; i < 256; i++ {
			b.Put(key, value)
		}
		b.seal(1)
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Fatalf("a warm batch refilled after Reset allocates %v times, want 0", n)
	}
}

func TestBatchCorruptRejected(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, batchHeaderSize-1),
		{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}, // count=1, no records
		append(make([]byte, batchHeaderSize), 99),
	}
	// Fix count in the last case's header.
	cases[3][8] = 1
	for i, c := range cases {
		err := batchIterate(c, func(uint64, keys.Kind, []byte, []byte) error { return nil })
		if err == nil {
			t.Errorf("case %d: corrupt batch accepted", i)
		}
	}
}

func TestBatchLargeValues(t *testing.T) {
	var b Batch
	big := bytes.Repeat([]byte("x"), 1<<20)
	b.Put([]byte("big"), big)
	rep := b.seal(7)
	err := batchIterate(rep, func(seq uint64, kind keys.Kind, key, value []byte) error {
		if !bytes.Equal(value, big) {
			t.Error("large value corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() < 1<<20 {
		t.Fatal("Size does not reflect payload")
	}
}

func TestParseFileName(t *testing.T) {
	cases := []struct {
		name string
		kind fileKind
		num  uint64
	}{
		{"CURRENT", kindCurrent, 0},
		{"MANIFEST-000005", kindManifest, 5},
		{"000123.log", kindWAL, 123},
		{"000456.ldb", kindTable, 456},
		{"CURRENT.000003.tmp", kindTemp, 0},
		{"garbage", kindUnknown, 0},
		{"xyz.ldb", kindUnknown, 0},
		{"MANIFEST-abc", kindUnknown, 0},
	}
	for _, c := range cases {
		kind, num := parseFileName(c.name)
		if kind != c.kind || num != c.num {
			t.Errorf("parseFileName(%q) = %v, %d; want %v, %d", c.name, kind, num, c.kind, c.num)
		}
	}
}
