package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fcae/internal/keys"
)

// pair drives the slab list and the reference list with the same entries.
// The reference stores keys only, so the values it should yield are kept
// beside it.
type pair struct {
	t      *testing.T
	list   *List
	ref    *refList
	values map[string][]byte
	keys   [][]byte
	buf    []byte // reused for every Insert: the list must copy, not keep
}

func newPair(t *testing.T, cmp Comparer, seed int64) *pair {
	return &pair{t: t, list: New(cmp, seed), ref: newRefList(cmp, seed), values: map[string][]byte{}}
}

func (p *pair) insert(key, value []byte) {
	k := bytes.Clone(key)
	p.ref.Insert(k)
	p.values[string(k)] = bytes.Clone(value)
	p.keys = append(p.keys, k)

	p.buf = append(append(p.buf[:0], key...), value...)
	p.list.Insert(p.buf[:len(key)], p.buf[len(key):])
	for i := range p.buf {
		p.buf[i] ^= 0xff
	}
}

// same requires both iterators to stand on the same entry, or on none.
func (p *pair) same(what string, it *Iterator, rit *refIterator) bool {
	p.t.Helper()
	if it.Valid() != rit.Valid() {
		p.t.Fatalf("%s: Valid = %v, reference %v", what, it.Valid(), rit.Valid())
	}
	if !it.Valid() {
		return false
	}
	if !bytes.Equal(it.Key(), rit.Key()) {
		p.t.Fatalf("%s: Key = %q, reference %q", what, it.Key(), rit.Key())
	}
	if want := p.values[string(rit.Key())]; !bytes.Equal(it.Value(), want) {
		p.t.Fatalf("%s: at key %q Value has %d bytes, reference %d", what, it.Key(), len(it.Value()), len(want))
	}
	return true
}

// check compares the two lists entry by entry in both directions and at
// every seek target given.
func (p *pair) check(targets [][]byte) {
	p.t.Helper()
	if p.list.Len() != p.ref.Len() {
		p.t.Fatalf("Len = %d, reference %d", p.list.Len(), p.ref.Len())
	}
	it, rit := p.list.NewIterator(), p.ref.NewIterator()
	n := 0
	it.SeekToFirst()
	rit.SeekToFirst()
	for p.same("forward", it, rit) {
		n++
		it.Next()
		rit.Next()
	}
	if n != p.list.Len() {
		p.t.Fatalf("forward scan met %d entries of %d", n, p.list.Len())
	}
	it.SeekToLast()
	rit.SeekToLast()
	for p.same("backward", it, rit) {
		n--
		it.Prev()
		rit.Prev()
	}
	if n != 0 {
		p.t.Fatalf("backward scan fell %d entries short", n)
	}
	for _, target := range targets {
		it.SeekGE(target)
		rit.SeekGE(target)
		if p.same(fmt.Sprintf("SeekGE(%q)", target), it, rit) {
			it.Next()
			rit.Next()
			p.same(fmt.Sprintf("SeekGE(%q), Next", target), it, rit)
		}
		it.SeekLT(target)
		rit.SeekLT(target)
		if p.same(fmt.Sprintf("SeekLT(%q)", target), it, rit) {
			it.Prev()
			rit.Prev()
			p.same(fmt.Sprintf("SeekLT(%q), Prev", target), it, rit)
		}
		if got, want := p.list.Contains(target), p.ref.Contains(target); got != want {
			p.t.Fatalf("Contains(%q) = %v, reference %v", target, got, want)
		}
	}
}

// sample returns up to n of the inserted keys.
func (p *pair) sample(rng *rand.Rand, n int) [][]byte {
	var out [][]byte
	for i := 0; i < n && len(p.keys) > 0; i++ {
		out = append(out, p.keys[rng.Intn(len(p.keys))])
	}
	return out
}

// randomValue is empty one time in eight, small mostly, and long enough
// often enough that a few thousand of them fill several byte chunks.
func randomValue(rng *rand.Rand) []byte {
	var n int
	switch r := rng.Intn(8); {
	case r == 0:
		n = 0
	case r < 6:
		n = 1 + rng.Intn(64)
	default:
		n = 256 + rng.Intn(1024)
	}
	v := make([]byte, n)
	rng.Read(v)
	return v
}

const differentialEntries = 9000 // three word chunks, a dozen byte chunks

func checkpoint(i int) bool {
	return i == 1 || i == 10 || i == 100 || i%3000 == 0
}

func crossedChunks(t *testing.T, l *List) {
	t.Helper()
	if w, b := len(*l.wordDir.Load()), len(*l.byteDir.Load()); w < 3 || b < 4 {
		t.Fatalf("%d word chunks and %d byte chunks: the fill was meant to cross several of each", w, b)
	}
}

// TestDifferentialPlainKeys: distinct byte-string keys under bytes.Compare,
// the empty key, empty values, and one value larger than a byte chunk.
func TestDifferentialPlainKeys(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, bytes.Compare, seed)
		// Before any insert, and with every key starting at 0x01 or above,
		// "" and "\x00" are before-first targets until "" itself goes in.
		edges := [][]byte{{}, {0}, bytes.Repeat([]byte{0xff}, 48)}
		p.check(edges)
		for i := 1; i <= differentialEntries; i++ {
			var key []byte
			if i != 50 {
				key = make([]byte, 1+rng.Intn(40))
				rng.Read(key)
				key[0] |= 1
				if p.ref.Contains(key) {
					continue
				}
			}
			value := randomValue(rng)
			if i == 500 {
				value = make([]byte, byteChunk+12345)
				rng.Read(value)
			}
			p.insert(key, value)
			if checkpoint(i) || i == 49 || i == 50 || i == 500 {
				absent := make([][]byte, 20)
				for j := range absent {
					absent[j] = make([]byte, 1+rng.Intn(40))
					rng.Read(absent[j])
				}
				p.check(append(append(edges, p.sample(rng, 40)...), absent...))
			}
		}
		crossedChunks(t, p.list)
	}
}

// TestDifferentialInternalKeys: the memtable's order — few user keys (the
// empty one among them) rewritten at rising sequence numbers, a fifth of
// the entries tombstones.
func TestDifferentialInternalKeys(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{3, 4} {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, keys.Compare, seed)
		user := func(i int) []byte {
			if i == 0 {
				return nil
			}
			return []byte(fmt.Sprintf("user%04d", i))
		}
		edges := [][]byte{
			keys.MakeInternal(nil, nil, keys.MaxSeq, keys.KindSet), // before the first entry
			keys.MakeInternal(nil, []byte("zzzz"), 0, keys.KindDelete),
		}
		for i := 1; i <= differentialEntries; i++ {
			u := user(rng.Intn(300))
			if rng.Intn(5) == 0 {
				p.insert(keys.MakeInternal(nil, u, uint64(i), keys.KindDelete), nil)
			} else {
				p.insert(keys.MakeInternal(nil, u, uint64(i), keys.KindSet), randomValue(rng))
			}
			if checkpoint(i) {
				targets := append(edges, p.sample(rng, 40)...)
				for j := 0; j < 40; j++ {
					// Lookup keys as Get builds them: a user key, present or
					// not, at a snapshot somewhere in the past.
					targets = append(targets, keys.MakeInternal(nil, user(rng.Intn(400)), uint64(rng.Intn(i+1)), keys.KindSet))
				}
				p.check(targets)
			}
		}
		crossedChunks(t, p.list)
	}
}

// TestEmptyEntryFirst: an entry of no bytes at all, into a list that has
// no chunk yet, still has somewhere to point.
func TestEmptyEntryFirst(t *testing.T) {
	t.Parallel()
	p := newPair(t, bytes.Compare, 1)
	p.insert(nil, nil)
	p.check([][]byte{{}, {1}})
	p.insert([]byte{1}, nil)
	p.check([][]byte{{}, {1}, {2}})
}
