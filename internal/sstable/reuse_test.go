package sstable

import (
	"fmt"
	"testing"

	"fcae/internal/cache"
	"fcae/internal/keys"
)

// TestIteratorInitMovesBetweenTables: one Iterator Init'ed onto table
// after table — compressed and not, in both directions, from wherever the
// last walk left it — reads what a fresh iterator reads, and Init(nil)
// leaves it holding no reader and no block.
func TestIteratorInitMovesBetweenTables(t *testing.T) {
	var readers []*Reader
	var tables [][]kv
	for i, comp := range []Compression{SnappyCompression, NoCompression, SnappyCompression} {
		entries := seqEntries(300+100*i, 40+60*i)
		for j := range entries {
			entries[j].user = fmt.Sprintf("t%d-%s", i, entries[j].user)
		}
		f, _ := buildTable(t, Options{Compression: comp, BlockSize: 1 << 10}, entries)
		r, err := NewReader(f, int64(len(f)), Options{}, cache.New(16<<10), uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		readers, tables = append(readers, r), append(tables, entries)
	}
	var it Iterator
	for round := 0; round < 3; round++ {
		for i, r := range readers {
			entries := tables[i]
			it.Init(r)
			if it.Valid() {
				t.Fatal("valid straight after Init")
			}
			n := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if string(keys.UserKey(it.Key())) != entries[n].user || string(it.Value()) != entries[n].value {
					t.Fatalf("round %d table %d: forward entry %d is %q", round, i, n, it.Key())
				}
				n++
			}
			if n != len(entries) || it.Error() != nil {
				t.Fatalf("round %d table %d: walked %d of %d forward, err %v", round, i, n, len(entries), it.Error())
			}
			for it.SeekToLast(); it.Valid(); it.Prev() {
				n--
				if string(keys.UserKey(it.Key())) != entries[n].user || string(it.Value()) != entries[n].value {
					t.Fatalf("round %d table %d: backward entry %d is %q", round, i, n, it.Key())
				}
			}
			if n != 0 || it.Error() != nil {
				t.Fatalf("round %d table %d: %d entries short backward, err %v", round, i, n, it.Error())
			}
			mid := entries[len(entries)/2+round]
			it.SeekGE(keys.MakeInternal(nil, []byte(mid.user), keys.MaxSeq, keys.KindSet))
			if !it.Valid() || string(it.Value()) != mid.value {
				t.Fatalf("round %d table %d: SeekGE(%q) at %q", round, i, mid.user, it.Key())
			}
			// and the next table is entered from the middle of this one
		}
	}
	it.Init(nil)
	if it.r != nil || it.index.b != nil || it.data.b != nil || it.data.own.data != nil || it.data.val != nil || it.index.val != nil || it.loaded {
		t.Fatalf("Init(nil) left the iterator holding a reader or a block: %+v", it)
	}
	if it.Valid() {
		t.Fatal("valid after Init(nil)")
	}
}

// TestGetReusesItsCursor: Gets against different tables share pooled
// cursors; each must answer from its own table whatever the cursor read
// last, and what it returns must be the caller's.
func TestGetReusesItsCursor(t *testing.T) {
	a, _ := buildTable(t, Options{Compression: SnappyCompression, FilterBitsPerKey: 10}, seqEntries(400, 100))
	other := seqEntries(400, 30)
	for i := range other {
		other[i].value = "b" + other[i].value
	}
	b, _ := buildTable(t, Options{Compression: NoCompression}, other)
	ra, err := NewReader(a, int64(len(a)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewReader(b, int64(len(b)), Options{}, cache.New(1<<20), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 7 {
		key := []byte(fmt.Sprintf("key%08d", i))
		va, _, found, err := ra.Get(key, keys.MaxSeq)
		if err != nil || !found || string(va) != fmt.Sprintf("%0100d", i) {
			t.Fatalf("table a, %q: %q found=%v err=%v", key, va, found, err)
		}
		vb, _, found, err := rb.Get(key, keys.MaxSeq)
		if err != nil || !found || string(vb) != "b"+fmt.Sprintf("%030d", i) {
			t.Fatalf("table b, %q: %q found=%v err=%v", key, vb, found, err)
		}
		vb[0] = 'X' // rb's blocks are cached and stored uncompressed: a view would scribble on the cache
		if again, _, _, _ := rb.Get(key, keys.MaxSeq); string(again) != "b"+fmt.Sprintf("%030d", i) {
			t.Fatalf("table b, %q: writing into a returned value reached the table's block", key)
		}
	}
	if _, _, found, err := ra.Get([]byte("nokey"), keys.MaxSeq); found || err != nil {
		t.Fatalf("absent key: found=%v err=%v", found, err)
	}
}
