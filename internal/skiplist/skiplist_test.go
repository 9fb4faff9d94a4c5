package skiplist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
)

func newList() *List { return New(bytes.Compare, 1) }

func TestEmptyList(t *testing.T) {
	t.Parallel()
	l := newList()
	if l.Len() != 0 {
		t.Fatal("new list should be empty")
	}
	it := l.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator over empty list must be invalid")
	}
	it.SeekToLast()
	if it.Valid() {
		t.Fatal("SeekToLast on empty list must be invalid")
	}
	if l.Contains([]byte("x")) {
		t.Fatal("empty list contains nothing")
	}
}

func TestInsertAndContains(t *testing.T) {
	t.Parallel()
	l := newList()
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for _, k := range keys {
		l.Insert([]byte(k), nil)
	}
	if l.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(keys))
	}
	for _, k := range keys {
		if !l.Contains([]byte(k)) {
			t.Errorf("missing %q", k)
		}
	}
	if l.Contains([]byte("zulu")) {
		t.Error("found key never inserted")
	}
}

func TestIterationIsSorted(t *testing.T) {
	t.Parallel()
	l := newList()
	var want []string
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(1000000))
		if l.Contains([]byte(k)) {
			continue
		}
		l.Insert([]byte(k), nil)
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	it := l.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestSeekGE(t *testing.T) {
	t.Parallel()
	l := newList()
	for _, k := range []string{"b", "d", "f"} {
		l.Insert([]byte(k), nil)
	}
	cases := []struct{ target, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"d", "d"}, {"e", "f"}, {"f", "f"},
	}
	it := l.NewIterator()
	for _, c := range cases {
		it.SeekGE([]byte(c.target))
		if !it.Valid() || string(it.Key()) != c.want {
			t.Errorf("SeekGE(%q): got %q", c.target, it.Key())
		}
	}
	it.SeekGE([]byte("g"))
	if it.Valid() {
		t.Error("SeekGE past end must be invalid")
	}
}

func TestSeekLTAndPrev(t *testing.T) {
	t.Parallel()
	l := newList()
	for _, k := range []string{"b", "d", "f"} {
		l.Insert([]byte(k), nil)
	}
	it := l.NewIterator()
	it.SeekLT([]byte("e"))
	if !it.Valid() || string(it.Key()) != "d" {
		t.Fatalf("SeekLT(e) = %q", it.Key())
	}
	it.Prev()
	if !it.Valid() || string(it.Key()) != "b" {
		t.Fatalf("Prev = %q", it.Key())
	}
	it.Prev()
	if it.Valid() {
		t.Fatal("Prev before first must invalidate")
	}
	it.SeekLT([]byte("b"))
	if it.Valid() {
		t.Fatal("SeekLT(first) must be invalid")
	}
}

func TestSeekToLast(t *testing.T) {
	t.Parallel()
	l := newList()
	for i := 0; i < 100; i++ {
		l.Insert([]byte(fmt.Sprintf("%04d", i)), nil)
	}
	it := l.NewIterator()
	it.SeekToLast()
	if !it.Valid() || string(it.Key()) != "0099" {
		t.Fatalf("SeekToLast = %q", it.Key())
	}
}

func TestBytesAccounting(t *testing.T) {
	t.Parallel()
	l := newList()
	l.Insert([]byte("abc"), nil)
	l.Insert([]byte("defgh"), nil)
	if l.Bytes() != 8 {
		t.Fatalf("Bytes = %d, want 8", l.Bytes())
	}
}

// concurrentValue is the value TestConcurrentReadersWithWriter stores under
// key number i: its length and its every byte follow from i, so a reader
// can tell a torn or misplaced one from the key alone.
func concurrentValue(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, i%13*53)
}

// TestConcurrentReadersWithWriter exercises the single-writer /
// multi-reader contract under the race detector, over a fill long enough
// that the writer opens new chunks of both slabs under the readers: a link
// into a chunk a reader's directory lacks panics, and an entry read before
// its bytes or lengths were written fails the length and content checks.
// The fill runs in scattered order, where every insert searches, and in
// ascending order, where every insert after the first appends.
func TestConcurrentReadersWithWriter(t *testing.T) {
	t.Parallel()
	const total = 8000
	for name, order := range map[string]func(i int) int{
		"scattered": func(i int) int { return i * 2654435761 % total },
		"ascending": func(i int) int { return i },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			l := newList()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						it := l.NewIterator()
						prev := []byte(nil)
						for it.SeekToFirst(); it.Valid(); it.Next() {
							if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
								t.Error("keys out of order during concurrent read")
								return
							}
							prev = append(prev[:0], it.Key()...)
							i, err := strconv.Atoi(string(prev[1:]))
							if len(prev) != 9 || err != nil {
								t.Errorf("read key %q, which was never inserted", prev)
								return
							}
							if !bytes.Equal(it.Value(), concurrentValue(i)) {
								t.Errorf("key %q: value of %d bytes is not the one inserted", prev, len(it.Value()))
								return
							}
						}
					}
				}()
			}
			for i := 0; i < total; i++ {
				n := order(i)
				l.Insert([]byte(fmt.Sprintf("k%08d", n)), concurrentValue(n))
			}
			close(stop)
			wg.Wait()
			if l.Len() != total {
				t.Fatalf("Len = %d, want %d", l.Len(), total)
			}
			crossedChunks(t, l)
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	l := newList()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%012d", i*2654435761)), nil)
	}
}

func BenchmarkSeekGE(b *testing.B) {
	l := newList()
	for i := 0; i < 100000; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%012d", i)), nil)
	}
	it := l.NewIterator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.SeekGE([]byte(fmt.Sprintf("key-%012d", i%100000)))
	}
}

// The 4MiB benchmarks have the shape the repo benchmark's memtable.add_ns
// and memtable.get_ns probes time: 16-byte keys with 128-byte values, as
// many as fill a 4 MiB memtable, in scattered order.
const (
	fillKeyLen   = 16
	fillValueLen = 128
	fillEntries  = (4 << 20) / (fillKeyLen + fillValueLen)
)

func fillKey(dst []byte, i int) []byte {
	dst = append(dst[:0], "fill-key"...)
	return binary.BigEndian.AppendUint64(dst, uint64(i*7919%fillEntries))
}

func fill4MiB() *List {
	l := newList()
	value := make([]byte, fillValueLen)
	var key []byte
	for i := 0; i < fillEntries; i++ {
		key = fillKey(key, i)
		l.Insert(key, value)
	}
	return l
}

// BenchmarkInsert4MiB reports one whole fill per iteration.
func BenchmarkInsert4MiB(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(fillEntries * (fillKeyLen + fillValueLen))
	for i := 0; i < b.N; i++ {
		fill4MiB()
	}
}

// BenchmarkInsert4MiBAscending has the shape of the repo benchmark's
// preload: 16-byte keys with 256-byte values, as many as fill 4 MiB, in
// ascending order, so every insert after the first appends.
func BenchmarkInsert4MiBAscending(b *testing.B) {
	const (
		valueLen = 256
		entries  = (4 << 20) / (fillKeyLen + valueLen)
	)
	value := make([]byte, valueLen)
	var key []byte
	b.ReportAllocs()
	b.SetBytes(entries * (fillKeyLen + valueLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := newList()
		for j := 0; j < entries; j++ {
			key = binary.BigEndian.AppendUint64(append(key[:0], "fill-key"...), uint64(j))
			l.Insert(key, value)
		}
	}
}

func BenchmarkSeekGE4MiB(b *testing.B) {
	l := fill4MiB()
	it := l.NewIterator()
	var key []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = fillKey(key, i)
		it.SeekGE(key)
	}
}
