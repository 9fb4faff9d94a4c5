package memtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fcae/internal/keys"
)

func TestGetLatestWins(t *testing.T) {
	t.Parallel()
	m := New(1)
	m.Add(1, keys.KindSet, []byte("k"), []byte("v1"))
	m.Add(2, keys.KindSet, []byte("k"), []byte("v2"))
	v, del, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || del || string(v) != "v2" {
		t.Fatalf("Get = %q del=%v found=%v", v, del, found)
	}
}

func TestGetSnapshotIsolation(t *testing.T) {
	t.Parallel()
	m := New(1)
	m.Add(1, keys.KindSet, []byte("k"), []byte("v1"))
	m.Add(5, keys.KindSet, []byte("k"), []byte("v5"))
	v, _, found := m.Get([]byte("k"), 3)
	if !found || string(v) != "v1" {
		t.Fatalf("Get@3 = %q found=%v, want v1", v, found)
	}
	_, _, found = m.Get([]byte("zzz"), keys.MaxSeq)
	if found {
		t.Fatal("absent key reported found")
	}
}

func TestGetTombstone(t *testing.T) {
	t.Parallel()
	m := New(1)
	m.Add(1, keys.KindSet, []byte("k"), []byte("v"))
	m.Add(2, keys.KindDelete, []byte("k"), nil)
	_, del, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || !del {
		t.Fatalf("deleted key: del=%v found=%v", del, found)
	}
	v, del, found := m.Get([]byte("k"), 1)
	if !found || del || string(v) != "v" {
		t.Fatal("older snapshot should still see the value")
	}
}

func TestIteratorOrder(t *testing.T) {
	t.Parallel()
	m := New(1)
	for i := 99; i >= 0; i-- {
		m.Add(uint64(100-i), keys.KindSet, []byte(fmt.Sprintf("key%03d", i)), []byte{byte(i)})
	}
	it := m.NewIterator()
	n := 0
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != 100 {
		t.Fatalf("iterated %d entries, want 100", n)
	}
}

func TestIteratorSeekGE(t *testing.T) {
	t.Parallel()
	m := New(1)
	m.Add(10, keys.KindSet, []byte("b"), []byte("vb"))
	m.Add(11, keys.KindSet, []byte("d"), []byte("vd"))
	it := m.NewIterator()
	it.SeekGE(keys.MakeInternal(nil, []byte("c"), keys.MaxSeq, keys.KindSet))
	if !it.Valid() || !bytes.Equal(keys.UserKey(it.Key()), []byte("d")) {
		t.Fatalf("SeekGE(c) landed on %q", it.Key())
	}
	if string(it.Value()) != "vd" {
		t.Fatalf("Value = %q", it.Value())
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	t.Parallel()
	m := New(1)
	before := m.ApproximateSize()
	m.Add(1, keys.KindSet, []byte("key"), make([]byte, 1000))
	if m.ApproximateSize() < before+1000 {
		t.Fatalf("size %d did not grow by value length", m.ApproximateSize())
	}
	if m.Empty() || m.Len() != 1 {
		t.Fatal("table should have one entry")
	}
}

func TestLargeValues(t *testing.T) {
	t.Parallel()
	m := New(1)
	val := bytes.Repeat([]byte{0xab}, 1<<16)
	m.Add(1, keys.KindSet, []byte("big"), val)
	got, _, found := m.Get([]byte("big"), keys.MaxSeq)
	if !found || !bytes.Equal(got, val) {
		t.Fatal("large value round trip failed")
	}
}

// TestApproximateSizeCountsLengthPrefixes holds ApproximateSize, after
// every Add, to what the varint-framed entries this package used to store
// came to — varint(len(ikey)) ikey varint(len(value)) value — so that the
// write at which a memtable is full has not moved.
func TestApproximateSizeCountsLengthPrefixes(t *testing.T) {
	t.Parallel()
	m := New(1)
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 119, 120, 127, 128, 1000, 16375, 16376, 16383, 16384, 1 << 16, 300 << 10}
	var tmp [binary.MaxVarintLen64]byte
	var want int64
	for i := 0; i < 2000; i++ {
		// The first len(lengths)² entries pair every edge length with every
		// other; the rest are what a store mostly sees.
		klen, vlen := rng.Intn(40), rng.Intn(300)
		if i < len(lengths)*len(lengths) {
			klen, vlen = lengths[i/len(lengths)], lengths[i%len(lengths)]
		}
		kind := keys.KindSet
		if i%7 == 0 {
			kind, vlen = keys.KindDelete, 0
		}
		m.Add(uint64(i+1), kind, make([]byte, klen), make([]byte, vlen))
		ikeyLen := klen + keys.TrailerSize
		want += int64(binary.PutUvarint(tmp[:], uint64(ikeyLen)) + ikeyLen + binary.PutUvarint(tmp[:], uint64(vlen)) + vlen)
		if got := m.ApproximateSize(); got != want {
			t.Fatalf("after entry %d (key %d B, value %d B): ApproximateSize = %d, want %d", i, klen, vlen, got, want)
		}
	}
}

// fillKey is the i-th 16-byte key of the allocation budgets' fills.
func fillKey(dst []byte, i int) []byte {
	return fmt.Appendf(dst[:0], "key-%012d", i)
}

// The allocation budgets are not parallel tests: AllocsPerRun and the
// runtime's allocation counter see the whole process.

func TestGetAllocationBudget(t *testing.T) {
	m := New(1)
	for i := 0; i < 1000; i++ {
		m.Add(uint64(i+1), keys.KindSet, fillKey(nil, i), make([]byte, 128))
	}
	m.Add(2000, keys.KindDelete, fillKey(nil, 7), nil)
	for name, key := range map[string][]byte{
		"hit":       fillKey(nil, 500),
		"miss":      fillKey(nil, 5000),
		"tombstone": fillKey(nil, 7),
	} {
		_, del, found := m.Get(key, keys.MaxSeq)
		if found != (name != "miss") || del != (name == "tombstone") {
			t.Fatalf("%s: found=%v deleted=%v", name, found, del)
		}
		if n := testing.AllocsPerRun(1000, func() { m.Get(key, keys.MaxSeq) }); n != 0 {
			t.Errorf("Get (%s) allocates %v times, want 0", name, n)
		}
	}
}

func TestAddAllocationBudget(t *testing.T) {
	const entries = (4 << 20) / (16 + 128)
	m := New(1)
	value := make([]byte, 128)
	var key []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < entries; i++ {
		key = append(key[:0], "key-"...)
		key = binary.BigEndian.AppendUint64(key, uint64(i)*0x9e3779b97f4a7c15)
		key = append(key, "-end"...)
		m.Add(uint64(i+1), keys.KindSet, key, value)
	}
	runtime.ReadMemStats(&after)
	perAdd := float64(after.Mallocs-before.Mallocs) / entries
	t.Logf("%d allocations over %d Adds (%d B): %.4f per Add", after.Mallocs-before.Mallocs, entries, m.ApproximateSize(), perAdd)
	if perAdd > 0.05 {
		t.Fatalf("%.4f allocations per Add over a 4 MiB fill, want <= 0.05: only chunk growth may allocate", perAdd)
	}
}

// escaped keeps the budget's iterators on the heap, where the store's — held
// behind an interface by the merging iterator — live.
var escaped *Iterator

func TestIteratorAllocationBudget(t *testing.T) {
	m := New(1)
	for i := 0; i < 1000; i++ {
		m.Add(uint64(i+1), keys.KindSet, fillKey(nil, i), make([]byte, 128))
	}
	target := keys.MakeInternal(nil, fillKey(nil, 300), keys.MaxSeq, keys.KindSet)
	var read int
	n := testing.AllocsPerRun(200, func() {
		it := m.NewIterator()
		escaped = it
		it.SeekGE(target)
		for i := 0; i < 50 && it.Valid(); i++ {
			read += len(it.Key()) + len(it.Value())
			it.Next()
		}
	})
	if read == 0 {
		t.Fatal("the scan read nothing")
	}
	if n > 1 {
		t.Fatalf("NewIterator + SeekGE + 50 Next allocate %v times, want 1: the iterator", n)
	}
}
