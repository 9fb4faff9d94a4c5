package skiplist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
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

// levels requires every level's links, in both lists, to visit exactly
// the nodes at least that tall, in key order, with the same heights in
// both lists, and the slab list's tail to name each level's last node.
func (p *pair) levels() {
	p.t.Helper()
	var tall [maxHeight][][]byte // tall[i]: keys of the nodes of height > i, in order
	for n := p.ref.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		for i := range n.next {
			tall[i] = append(tall[i], n.key)
		}
	}
	r := reader{list: p.list}
	for i := range maxHeight {
		var got [][]byte
		for n := p.ref.head.next[i].Load(); n != nil; n = n.next[i].Load() {
			got = append(got, n.key)
		}
		if j := firstDiff(got, tall[i]); j >= 0 {
			p.t.Fatalf("reference level %d leaves its tall nodes at position %d: it visits %d, %d are that tall", i, j, len(got), len(tall[i]))
		}
		got = got[:0]
		var last uint32
		for ref := atomic.LoadUint32(&p.list.head[nTower+i]); ref != 0; ref = atomic.LoadUint32(&r.node(ref)[nTower+i]) {
			got, last = append(got, r.key(r.node(ref))), ref
		}
		if j := firstDiff(got, tall[i]); j >= 0 {
			p.t.Fatalf("level %d leaves the reference's tall nodes at position %d: it visits %d, %d are that tall", i, j, len(got), len(tall[i]))
		}
		if p.list.tail[i] != last {
			p.t.Fatalf("tail[%d] = %d, the level's last node is %d", i, p.list.tail[i], last)
		}
	}
}

// firstDiff returns the first position at which a and b differ, or -1.
func firstDiff(a, b [][]byte) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// check compares the two lists entry by entry in both directions, link by
// link at every level, and at every seek target given.
func (p *pair) check(targets [][]byte) {
	p.t.Helper()
	if p.list.Len() != p.ref.Len() {
		p.t.Fatalf("Len = %d, reference %d", p.list.Len(), p.ref.Len())
	}
	p.levels()
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

// TestDifferentialOrderedStreams: streams that do and do not take the
// append path. Ascending keys all go behind the last node; descending ones
// never do; after a random fill, ascending keys interleaved with keys that
// land inside the list switch between the two paths.
func TestDifferentialOrderedStreams(t *testing.T) {
	t.Parallel()
	key := func(n uint64) []byte { return binary.BigEndian.AppendUint64([]byte("k"), n) }
	streams := map[string]func(rng *rand.Rand, i int, p *pair) []byte{
		"ascending":  func(_ *rand.Rand, i int, _ *pair) []byte { return key(uint64(i) * 3) },
		"descending": func(_ *rand.Rand, i int, _ *pair) []byte { return key(uint64(differentialEntries-i) * 3) },
		"ascending_after_random": func(rng *rand.Rand, i int, p *pair) []byte {
			if i <= differentialEntries/3 || i%10 == 0 {
				for {
					// Below every ascending key: from the second phase on,
					// these land inside the list.
					if k := key(rng.Uint64() >> 24); !p.ref.Contains(k) {
						return k
					}
				}
			}
			return key(1<<40 + uint64(i))
		},
	}
	for name, next := range streams {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(5))
			p := newPair(t, bytes.Compare, 5)
			p.check(nil)
			for i := 1; i <= differentialEntries; i++ {
				p.insert(next(rng, i, p), randomValue(rng))
				if checkpoint(i) || i == differentialEntries/3+1 {
					p.check(append(p.sample(rng, 40), key(0), key(1<<41)))
				}
			}
			crossedChunks(t, p.list)
		})
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
