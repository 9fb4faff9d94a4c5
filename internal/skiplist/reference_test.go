package skiplist

// The pointer skiplist this package was before the slab: one heap node and
// one next array per key, keys only. It is kept, test-only and otherwise
// as it was, as the reference the differential tests drive beside List.

import (
	"math/rand"
	"sync/atomic"
)

type refNode struct {
	key  []byte
	next []atomic.Pointer[refNode]
}

func newRefNode(key []byte, height int) *refNode {
	return &refNode{key: key, next: make([]atomic.Pointer[refNode], height)}
}

// refList is a skiplist of byte-slice keys. The zero value is not usable; call
// newRefList.
type refList struct {
	cmp    Comparer
	head   *refNode
	height atomic.Int32
	rnd    *rand.Rand
	count  atomic.Int64
	bytes  atomic.Int64
}

// newRefList returns an empty list ordered by cmp. seed fixes the tower-height
// RNG so tests are reproducible.
func newRefList(cmp Comparer, seed int64) *refList {
	l := &refList{
		cmp:  cmp,
		head: newRefNode(nil, maxHeight),
		rnd:  rand.New(rand.NewSource(seed)),
	}
	l.height.Store(1)
	return l
}

// Len returns the number of inserted keys.
func (l *refList) Len() int { return int(l.count.Load()) }

// Bytes returns the total length of inserted keys.
func (l *refList) Bytes() int64 { return l.bytes.Load() }

func (l *refList) randomHeight() int {
	h := 1
	for h < maxHeight && l.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with key >= k, filling prev[i] with the
// rightmost node at level i whose key < k when prev is non-nil.
func (l *refList) findGE(k []byte, prev *[maxHeight]*refNode) *refNode {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && l.cmp(next.key, k) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// findLT returns the rightmost node with key < k, or nil if none.
func (l *refList) findLT(k []byte) *refNode {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && l.cmp(next.key, k) < 0 {
			x = next
			continue
		}
		if level == 0 {
			if x == l.head {
				return nil
			}
			return x
		}
		level--
	}
}

// findLast returns the last node in the list, or nil if empty.
func (l *refList) findLast() *refNode {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil {
			x = next
			continue
		}
		if level == 0 {
			if x == l.head {
				return nil
			}
			return x
		}
		level--
	}
}

// Insert adds key to the list. The caller must not insert a key equal to
// one already present (the MemTable guarantees this by suffixing unique
// sequence numbers) and must serialize Insert calls.
func (l *refList) Insert(key []byte) {
	var prev [maxHeight]*refNode
	l.findGE(key, &prev)

	h := l.randomHeight()
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prev[i] = l.head
		}
		// Concurrent readers that observe the old height simply skip
		// the new upper levels; publishing height before links is safe.
		l.height.Store(int32(h))
	}

	n := newRefNode(key, h)
	for i := 0; i < h; i++ {
		n.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(n)
	}
	l.count.Add(1)
	l.bytes.Add(int64(len(key)))
}

// Contains reports whether key is present.
func (l *refList) Contains(key []byte) bool {
	n := l.findGE(key, nil)
	return n != nil && l.cmp(n.key, key) == 0
}

// refIterator walks the list. It is valid only while positioned on a node.
// Multiple iterators may be used concurrently with a single writer.
type refIterator struct {
	list *refList
	node *refNode
}

// NewIterator returns an unpositioned iterator.
func (l *refList) NewIterator() *refIterator { return &refIterator{list: l} }

// Valid reports whether the iterator is positioned on a key.
func (it *refIterator) Valid() bool { return it.node != nil }

// Key returns the current key; only valid when Valid().
func (it *refIterator) Key() []byte { return it.node.key }

// Next advances to the following key.
func (it *refIterator) Next() { it.node = it.node.next[0].Load() }

// Prev moves to the preceding key (O(log n)).
func (it *refIterator) Prev() { it.node = it.list.findLT(it.node.key) }

// SeekGE positions at the first key >= target.
func (it *refIterator) SeekGE(target []byte) { it.node = it.list.findGE(target, nil) }

// SeekLT positions at the last key < target.
func (it *refIterator) SeekLT(target []byte) { it.node = it.list.findLT(target) }

// SeekToFirst positions at the smallest key.
func (it *refIterator) SeekToFirst() { it.node = it.list.head.next[0].Load() }

// SeekToLast positions at the largest key.
func (it *refIterator) SeekToLast() { it.node = it.list.findLast() }
