package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fcae/internal/cache"
	"fcae/internal/keys"
)

// memFile adapts a byte slice to io.ReaderAt.
type memFile []byte

func (m memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m)) {
		return 0, fmt.Errorf("read past end")
	}
	n := copy(p, m[off:])
	if n < len(p) {
		return n, fmt.Errorf("short read")
	}
	return n, nil
}

type kv struct {
	user  string
	seq   uint64
	kind  keys.Kind
	value string
}

func buildTable(t *testing.T, opts Options, entries []kv) (memFile, WriterStats) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts)
	for _, e := range entries {
		ik := keys.MakeInternal(nil, []byte(e.user), e.seq, e.kind)
		if err := w.Add(ik, []byte(e.value)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return memFile(buf.Bytes()), stats
}

func seqEntries(n, valueLen int) []kv {
	out := make([]kv, n)
	for i := range out {
		out[i] = kv{
			user:  fmt.Sprintf("key%08d", i),
			seq:   uint64(n - i),
			kind:  keys.KindSet,
			value: fmt.Sprintf("%0*d", valueLen, i),
		}
	}
	return out
}

func TestBuildAndScan(t *testing.T) {
	for _, comp := range []Compression{NoCompression, SnappyCompression} {
		entries := seqEntries(1000, 100)
		f, stats := buildTable(t, Options{Compression: comp, FilterBitsPerKey: 10}, entries)
		if stats.Entries != 1000 {
			t.Fatalf("stats.Entries = %d", stats.Entries)
		}
		if stats.DataBlocks < 10 {
			t.Fatalf("expected multiple data blocks, got %d", stats.DataBlocks)
		}
		r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIterator()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if got := string(keys.UserKey(it.Key())); got != entries[i].user {
				t.Fatalf("entry %d: key %q, want %q", i, got, entries[i].user)
			}
			if got := string(it.Value()); got != entries[i].value {
				t.Fatalf("entry %d: value mismatch", i)
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if i != 1000 {
			t.Fatalf("scanned %d entries (compression %d)", i, comp)
		}
	}
}

func TestSnappyActuallyCompresses(t *testing.T) {
	entries := seqEntries(2000, 200)
	fRaw, _ := buildTable(t, Options{Compression: NoCompression}, entries)
	fSnap, _ := buildTable(t, Options{Compression: SnappyCompression}, entries)
	if len(fSnap) >= len(fRaw) {
		t.Fatalf("snappy table (%d) not smaller than raw (%d)", len(fSnap), len(fRaw))
	}
}

func TestGet(t *testing.T) {
	entries := seqEntries(500, 50)
	f, _ := buildTable(t, Options{Compression: SnappyCompression, FilterBitsPerKey: 10}, entries)
	r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 250, 498, 499} {
		v, del, found, err := r.Get([]byte(entries[i].user), keys.MaxSeq)
		if err != nil || !found || del {
			t.Fatalf("Get(%q): %v found=%v del=%v", entries[i].user, err, found, del)
		}
		if string(v) != entries[i].value {
			t.Fatalf("Get(%q) = %q", entries[i].user, v)
		}
	}
	if _, _, found, _ := r.Get([]byte("nokey"), keys.MaxSeq); found {
		t.Fatal("absent key reported found")
	}
}

func TestGetHonorsSnapshot(t *testing.T) {
	entries := []kv{
		{"k", 9, keys.KindSet, "new"},
		{"k", 4, keys.KindSet, "old"},
	}
	f, _ := buildTable(t, Options{}, entries)
	r, err := NewReader(f, int64(len(f)), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, _, found, _ := r.Get([]byte("k"), 6)
	if !found || string(v) != "old" {
		t.Fatalf("Get@6 = %q found=%v", v, found)
	}
	v, _, found, _ = r.Get([]byte("k"), keys.MaxSeq)
	if !found || string(v) != "new" {
		t.Fatalf("Get@max = %q", v)
	}
}

func TestGetTombstone(t *testing.T) {
	entries := []kv{{"k", 5, keys.KindDelete, ""}, {"k", 2, keys.KindSet, "v"}}
	f, _ := buildTable(t, Options{}, entries)
	r, _ := NewReader(f, int64(len(f)), Options{}, nil, 1)
	_, del, found, _ := r.Get([]byte("k"), keys.MaxSeq)
	if !found || !del {
		t.Fatalf("tombstone: found=%v del=%v", found, del)
	}
}

func TestSeekGE(t *testing.T) {
	entries := seqEntries(1000, 20)
	f, _ := buildTable(t, Options{Compression: SnappyCompression}, entries)
	r, _ := NewReader(f, int64(len(f)), Options{}, nil, 1)
	it := r.NewIterator()
	// Seek to a key between entries.
	it.SeekGE(keys.MakeInternal(nil, []byte("key00000500x"), keys.MaxSeq, keys.KindSet))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "key00000501" {
		t.Fatalf("SeekGE landed on %q", it.Key())
	}
	// Seek past the end.
	it.SeekGE(keys.MakeInternal(nil, []byte("zzz"), keys.MaxSeq, keys.KindSet))
	if it.Valid() {
		t.Fatal("SeekGE past end should be invalid")
	}
	// Seek before the start.
	it.SeekGE(keys.MakeInternal(nil, []byte("a"), keys.MaxSeq, keys.KindSet))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "key00000000" {
		t.Fatalf("SeekGE(a) landed on %q", it.Key())
	}
}

func TestBackwardIteration(t *testing.T) {
	entries := seqEntries(300, 30)
	f, _ := buildTable(t, Options{BlockSize: 256}, entries)
	r, _ := NewReader(f, int64(len(f)), Options{}, nil, 1)
	it := r.NewIterator()
	i := len(entries) - 1
	for it.SeekToLast(); it.Valid(); it.Prev() {
		if got := string(keys.UserKey(it.Key())); got != entries[i].user {
			t.Fatalf("backward entry %d: %q want %q", i, got, entries[i].user)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("backward scan stopped at %d", i)
	}
}

func TestBlockCacheIsUsed(t *testing.T) {
	entries := seqEntries(2000, 64)
	f, _ := buildTable(t, Options{}, entries)
	c := cache.New(1 << 20)
	r, err := NewReader(f, int64(len(f)), Options{}, c, 99)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if c.Len() == 0 {
		t.Fatal("scan populated no cache entries")
	}
	// A second scan should hit the cache; verify results identical.
	it2 := r.NewIterator()
	n := 0
	for it2.SeekToFirst(); it2.Valid(); it2.Next() {
		n++
	}
	if n != 2000 {
		t.Fatalf("cached scan saw %d entries", n)
	}
}

// TestOpenLeavesBlockCacheAlone: the index, metaindex and filter blocks
// live in the Reader's own fields, so opening a table must neither insert
// them into a shared cache (where they could never be hit and would evict
// data blocks) nor count misses for them; the cache sees data blocks only.
func TestOpenLeavesBlockCacheAlone(t *testing.T) {
	entries := seqEntries(2000, 64)
	f, _ := buildTable(t, Options{FilterBitsPerKey: 10}, entries)
	c := cache.New(1 << 20)
	r, err := NewReader(f, int64(len(f)), Options{}, c, 99)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); c.Len() != 0 || hits != 0 || misses != 0 {
		t.Fatalf("open left %d blocks, %d hits, %d misses in the cache; want none", c.Len(), hits, misses)
	}
	if _, _, found, err := r.Get([]byte(entries[0].user), keys.MaxSeq); err != nil || !found {
		t.Fatalf("Get: found=%v, %v", found, err)
	}
	if hits, misses := c.Stats(); c.Len() != 1 || hits != 0 || misses != 1 {
		t.Fatalf("one Get left %d blocks, %d hits, %d misses; want 1, 0, 1", c.Len(), hits, misses)
	}
}

func TestRejectsOutOfOrderKeys(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	a := keys.MakeInternal(nil, []byte("b"), 1, keys.KindSet)
	b := keys.MakeInternal(nil, []byte("a"), 1, keys.KindSet)
	if err := w.Add(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(b, nil); err == nil {
		t.Fatal("out-of-order Add accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	entries := seqEntries(200, 50)
	f, _ := buildTable(t, Options{}, entries)
	// Flip a byte in the first data block.
	corrupted := append(memFile(nil), f...)
	corrupted[10] ^= 0xff
	r, err := NewReader(corrupted, int64(len(corrupted)), Options{}, nil, 1)
	if err != nil {
		return // corruption caught at open: acceptable
	}
	it := r.NewIterator()
	it.SeekToFirst()
	for it.Valid() {
		it.Next()
	}
	if it.Error() == nil {
		t.Fatal("scan over corrupted block reported no error")
	}
}

func TestBadMagicRejected(t *testing.T) {
	entries := seqEntries(10, 10)
	f, _ := buildTable(t, Options{}, entries)
	bad := append(memFile(nil), f...)
	bad[len(bad)-1] ^= 0xff
	if _, err := NewReader(bad, int64(len(bad)), Options{}, nil, 1); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 0 {
		t.Fatal("empty table has entries")
	}
	r, err := NewReader(memFile(buf.Bytes()), int64(buf.Len()), Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator over empty table is valid")
	}
}

func TestRandomAccessPattern(t *testing.T) {
	entries := seqEntries(5000, 40)
	f, _ := buildTable(t, Options{Compression: SnappyCompression, FilterBitsPerKey: 10}, entries)
	r, _ := NewReader(f, int64(len(f)), Options{}, cache.New(1<<20), 3)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		j := rng.Intn(len(entries))
		v, _, found, err := r.Get([]byte(entries[j].user), keys.MaxSeq)
		if err != nil || !found || string(v) != entries[j].value {
			t.Fatalf("random Get(%d): %v found=%v", j, err, found)
		}
	}
}

func TestHandleRoundTrip(t *testing.T) {
	h := Handle{Offset: 123456789, Size: 4096}
	enc := h.EncodeTo(nil)
	got, rest, err := DecodeHandle(enc)
	if err != nil || got != h || len(rest) != 0 {
		t.Fatalf("DecodeHandle = %+v, rest=%d, %v", got, len(rest), err)
	}
}

func TestFooterRoundTrip(t *testing.T) {
	f := Footer{MetaIndex: Handle{1000, 64}, Index: Handle{2000, 512}}
	enc := f.Encode()
	if len(enc) != FooterSize {
		t.Fatalf("footer length %d, want %d", len(enc), FooterSize)
	}
	got, err := DecodeFooter(enc)
	if err != nil || got != f {
		t.Fatalf("DecodeFooter = %+v, %v", got, err)
	}
}

func TestLargeValues(t *testing.T) {
	big := string(bytes.Repeat([]byte("v"), 64*1024))
	entries := []kv{{"big", 1, keys.KindSet, big}}
	f, _ := buildTable(t, Options{Compression: SnappyCompression}, entries)
	r, _ := NewReader(f, int64(len(f)), Options{}, nil, 1)
	v, _, found, err := r.Get([]byte("big"), keys.MaxSeq)
	if err != nil || !found || len(v) != len(big) {
		t.Fatalf("large value Get: %v found=%v len=%d", err, found, len(v))
	}
}
