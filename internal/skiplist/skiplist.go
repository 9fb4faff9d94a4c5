// Package skiplist provides the ordered in-memory index backing the
// MemTable (paper §II: "the newest data are stored in the MemTable in main
// memory using skiplists"). Writes must be externally serialized (the DB
// holds its write mutex); reads may proceed concurrently with a writer
// because node links are published with atomic stores, mirroring LevelDB's
// single-writer/multi-reader skiplist contract.
//
// A list lives in two slabs of fixed-size chunks. Both are append-only and
// hold no pointers, so the collector never scans them and frees them whole
// with the list:
//
//   - the word slab, []uint32 chunks. A node is a run of words — the byte
//     chunk and offset its entry lives at, its key length, its value
//     length, then its tower of links — and a reference to a node is the
//     32-bit index of its first word in the slab, 0 for nil;
//   - the byte slab, []byte chunks holding each entry's key ‖ value.
//
// A chunk never moves. The writer fills an entry's bytes and its node's
// header with plain writes, then stores the node's reference into its
// predecessors' towers with atomic stores, level 0 first; a reader that
// loads a reference from a tower therefore sees everything written before
// it, including the chunk directories, which the writer republishes before
// the first link into a chunk it added.
package skiplist

import (
	"math/rand"
	"sync/atomic"
)

const (
	maxHeight = 12
	// branching gives P(promote) = 1/branching per level.
	branching = 4

	// A word chunk (64 KiB) holds a few thousand nodes; a byte chunk is
	// what an empty list costs at its first Insert and at most what one
	// wastes at its end. An entry larger than a byte chunk gets a chunk
	// of exactly its size.
	wordShift = 14
	wordChunk = 1 << wordShift
	byteChunk = 256 << 10

	// Offsets of a node's words.
	nChunk  = 0 // index of the byte chunk holding the entry
	nOffset = 1 // where in that chunk the key starts; the value follows it
	nKeyLen = 2
	nValLen = 3
	nTower  = 4 // nTower+i is the level-i link
)

// Comparer orders the keys stored in the list.
type Comparer func(a, b []byte) int

// List is a skiplist of byte-slice keys, each carrying a value. The zero
// value is not usable; call New.
type List struct {
	cmp    Comparer
	height atomic.Int32
	rnd    *rand.Rand
	count  atomic.Int64
	bytes  atomic.Int64

	// head is shaped like a node so a search can stand on it; only its
	// tower is used.
	head [nTower + maxHeight]uint32

	// The chunk directories. A reader loads one after the link that
	// sent it there; the writer alone replaces them.
	wordDir atomic.Pointer[[][]uint32]
	byteDir atomic.Pointer[[][]byte]

	// Writer only: the last node at each level (0 where the level holds
	// none), so a key past the last one is linked without a search.
	tail [maxHeight]uint32

	// Writer only: the unused tails of the newest chunks.
	wordFree []uint32
	wordRef  uint32 // reference of wordFree[0]
	byteFree []byte
	bytePos  [2]uint32 // where byteFree[0] is: a node's nChunk and nOffset words
}

// New returns an empty list ordered by cmp. seed fixes the tower-height
// RNG so tests are reproducible.
func New(cmp Comparer, seed int64) *List {
	l := &List{cmp: cmp, rnd: rand.New(rand.NewSource(seed))}
	l.height.Store(1)
	return l
}

// Len returns the number of inserted entries.
func (l *List) Len() int { return int(l.count.Load()) }

// Bytes returns the total length of inserted keys and values.
func (l *List) Bytes() int64 { return l.bytes.Load() }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}

// addChunk publishes dir extended by chunk and returns chunk's index. The
// append may write the old directory's spare capacity: no reader indexes
// past the length of the directory it loaded.
func addChunk[T any](dir *atomic.Pointer[[]T], chunk T) int {
	var d []T
	if p := dir.Load(); p != nil {
		d = *p
	}
	d = append(d, chunk)
	dir.Store(&d)
	return len(d) - 1
}

// newNode copies the entry into the byte slab and returns a node of height
// h for it, with its reference. Nothing points at the node yet.
func (l *List) newNode(key, value []byte, h int) (uint32, []uint32) {
	if uint64(len(key)) > 1<<32-1 || uint64(len(value)) > 1<<32-1 {
		panic("skiplist: key or value of 4 GiB or more")
	}
	size := len(key) + len(value)
	// >= and not >: an empty entry must still have a chunk to point into.
	if size >= len(l.byteFree) {
		l.byteFree = make([]byte, max(size, byteChunk))
		// A byte chunk holds at least one entry and a node at least five
		// words, so the word slab's index space runs out first.
		l.bytePos = [2]uint32{nChunk: uint32(addChunk(&l.byteDir, l.byteFree)), nOffset: 0}
	}
	copy(l.byteFree, key)
	copy(l.byteFree[len(key):], value)

	words := nTower + h
	if words > len(l.wordFree) {
		l.wordFree = make([]uint32, wordChunk)
		i := addChunk(&l.wordDir, l.wordFree)
		if i == 1<<(32-wordShift) {
			panic("skiplist: more than 2^32 words of nodes")
		}
		l.wordRef = uint32(i) << wordShift
		if i == 0 {
			// Reference 0 is nil: the slab's first word is no node's.
			l.wordFree, l.wordRef = l.wordFree[1:], 1
		}
	}
	ref, n := l.wordRef, l.wordFree[:words]
	copy(n, l.bytePos[:])
	n[nKeyLen], n[nValLen] = uint32(len(key)), uint32(len(value))

	l.wordFree, l.wordRef = l.wordFree[words:], l.wordRef+uint32(words)
	l.byteFree, l.bytePos[nOffset] = l.byteFree[size:], l.bytePos[nOffset]+uint32(size)
	return ref, n
}

// reader resolves references against its own copy of the chunk
// directories. A directory only grows and a chunk never moves, so a stale
// copy serves every reference it covers, and a search pays for the atomic
// loads once rather than at every step: the copy is refreshed only when a
// reference falls beyond it, which the link it was loaded from guarantees
// the current directory covers.
type reader struct {
	list  *List
	words [][]uint32
	bytes [][]byte
}

// node returns the words of the node at ref, from its header to the end
// of its chunk, or nil when ref is 0.
func (r *reader) node(ref uint32) []uint32 {
	if ref == 0 {
		return nil
	}
	i := int(ref >> wordShift)
	if i >= len(r.words) {
		r.words = *r.list.wordDir.Load()
	}
	return r.words[i][ref&(wordChunk-1):]
}

// next returns the node that n links to at level.
func (r *reader) next(n []uint32, level int) []uint32 {
	return r.node(atomic.LoadUint32(&n[nTower+level]))
}

// entry returns the bytes of n's chunk from its key on.
func (r *reader) entry(n []uint32) []byte {
	i := int(n[nChunk])
	if i >= len(r.bytes) {
		r.bytes = *r.list.byteDir.Load()
	}
	return r.bytes[i][n[nOffset]:]
}

func (r *reader) key(n []uint32) []byte { return r.entry(n)[:n[nKeyLen]] }

func (r *reader) value(n []uint32) []byte {
	return r.entry(n)[n[nKeyLen]:][:n[nValLen]]
}

// seek returns the rightmost node with key < k (the head when there is
// none) and the first node with key >= k (nil when there is none), filling
// prev[i] with the rightmost node at level i whose key < k when prev is
// non-nil.
func (r *reader) seek(k []byte, prev *[maxHeight][]uint32) (lt, ge []uint32) {
	x := r.list.head[:]
	level := int(r.list.height.Load()) - 1
	for {
		next := r.next(x, level)
		if next != nil && r.list.cmp(r.key(next), k) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return x, next
		}
		level--
	}
}

// tower returns the words of the node at ref, or the head when ref is 0.
func (r *reader) tower(ref uint32) []uint32 {
	if ref == 0 {
		return r.list.head[:]
	}
	return r.node(ref)
}

// orNil is x, or nil when x is the head.
func (r *reader) orNil(x []uint32) []uint32 {
	if &x[0] == &r.list.head[0] {
		return nil
	}
	return x
}

// findLast returns the last node in the list, or nil if empty.
func (r *reader) findLast() []uint32 {
	x := r.list.head[:]
	level := int(r.list.height.Load()) - 1
	for {
		next := r.next(x, level)
		if next != nil {
			x = next
			continue
		}
		if level == 0 {
			return r.orNil(x)
		}
		level--
	}
}

// Insert adds key with its value to the list, copying both. The caller
// must not insert a key equal to one already present (the MemTable
// guarantees this by suffixing unique sequence numbers) and must serialize
// Insert calls. A key that sorts after every key present is linked
// behind the last node at each level without a search; the list it builds
// is link for link the one the search would have built.
func (l *List) Insert(key, value []byte) {
	var prev [maxHeight][]uint32
	r := reader{list: l}
	if last := r.node(l.tail[0]); last != nil && l.cmp(r.key(last), key) < 0 {
		for i := range int(l.height.Load()) {
			prev[i] = r.tower(l.tail[i])
		}
	} else {
		r.seek(key, &prev)
	}

	h := l.randomHeight()
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prev[i] = l.head[:]
		}
		// Concurrent readers that observe the old height simply skip
		// the new upper levels; publishing height before links is safe.
		l.height.Store(int32(h))
	}

	ref, n := l.newNode(key, value, h)
	for i := 0; i < h; i++ {
		link := &prev[i][nTower+i]
		next := atomic.LoadUint32(link)
		atomic.StoreUint32(&n[nTower+i], next)
		atomic.StoreUint32(link, ref)
		if next == 0 {
			l.tail[i] = ref
		}
	}
	l.count.Add(1)
	l.bytes.Add(int64(len(key) + len(value)))
}

// Contains reports whether key is present.
func (l *List) Contains(key []byte) bool {
	r := reader{list: l}
	_, n := r.seek(key, nil)
	return n != nil && l.cmp(r.key(n), key) == 0
}

// Iterator walks the list. It is valid only while positioned on a node.
// Multiple iterators may be used concurrently with a single writer. Key
// and Value return the list's own bytes, which must not be written.
type Iterator struct {
	reader
	node []uint32
}

// NewIterator returns an unpositioned iterator.
func (l *List) NewIterator() *Iterator { return &Iterator{reader: reader{list: l}} }

// Valid reports whether the iterator is positioned on a key.
func (it *Iterator) Valid() bool { return it.node != nil }

// Key returns the current key; only valid when Valid().
func (it *Iterator) Key() []byte { return it.key(it.node) }

// Value returns the current key's value; only valid when Valid().
func (it *Iterator) Value() []byte { return it.value(it.node) }

// Next advances to the following key.
func (it *Iterator) Next() { it.node = it.next(it.node, 0) }

// Prev moves to the preceding key (O(log n)).
func (it *Iterator) Prev() { it.SeekLT(it.Key()) }

// SeekGE positions at the first key >= target.
func (it *Iterator) SeekGE(target []byte) { _, it.node = it.seek(target, nil) }

// SeekLT positions at the last key < target.
func (it *Iterator) SeekLT(target []byte) {
	lt, _ := it.seek(target, nil)
	it.node = it.orNil(lt)
}

// SeekToFirst positions at the smallest key.
func (it *Iterator) SeekToFirst() { it.node = it.next(it.list.head[:], 0) }

// SeekToLast positions at the largest key.
func (it *Iterator) SeekToLast() { it.node = it.findLast() }
