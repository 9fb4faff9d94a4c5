// Package iter defines the internal iterator contract shared by the
// memtable, sstable and compaction layers, plus the k-way merging iterator
// that the software compactor and the DB read path are built on. The
// merging iterator is the software counterpart of the engine's Comparer
// module (paper §V-A): both repeatedly select the smallest key across N
// sorted inputs.
package iter

import "fcae/internal/keys"

// Iterator walks a sorted sequence of internal key/value entries in both
// directions.
type Iterator interface {
	// Valid reports whether the iterator is positioned on an entry.
	Valid() bool
	// SeekGE positions at the first entry with internal key >= target.
	SeekGE(target []byte)
	// SeekToFirst positions at the first entry.
	SeekToFirst()
	// SeekToLast positions at the final entry.
	SeekToLast()
	// Next advances to the following entry.
	Next()
	// Prev steps to the preceding entry.
	Prev()
	// Key returns the current internal key. Only valid when Valid().
	Key() []byte
	// Value returns the current value. Only valid when Valid().
	Value() []byte
	// Error returns the first error the iterator encountered.
	Error() error
}

// Merging merges n child iterators into one sorted stream. Entries with
// equal internal keys never occur (sequence numbers are unique), so the
// merge is a strict weak order. The iterator supports both directions
// with LevelDB-style direction switching: reversing repositions every
// non-current child to just before the current key.
//
// The children that still have an entry sit in a binary heap of
// mergeSlots ordered by key (smallest on top going forward, largest in
// reverse). The heap is the iterator's own — concrete slots, no
// heap.Interface dispatch, no boxing — and compares the keys cached in
// the slots, so a step costs one Key() call on the child that moved, not
// two per comparison.
type Merging struct {
	children []Iterator
	heap     []mergeSlot
	pivot    []byte // the key a direction switch repositions around
	inited   bool
	reverse  bool
}

// NewMerging returns a merging iterator over children.
func NewMerging(children ...Iterator) *Merging {
	return &Merging{children: children}
}

// Reset makes m an unpositioned merge over children, which it keeps. The
// zero Merging may be Reset, so a Merging can be a field of what owns its
// children; the heap is sized for them once.
func (m *Merging) Reset(children []Iterator) {
	if cap(m.heap) < len(children) {
		m.heap = make([]mergeSlot, 0, len(children))
	}
	m.children, m.heap = children, m.heap[:0]
	m.inited, m.reverse = false, false
}

// mergeSlot is one child in the heap together with the key it stands on.
// key is the child's own buffer, not a copy: it holds only until the
// child moves. So a child whose slot is in the heap is moved only by the
// slot's methods, each of which re-reads the key; seeks and direction
// switches move children directly and then rebuild every slot.
type mergeSlot struct {
	it  Iterator
	key []byte
}

// load reads the child's current key into the slot, reporting whether
// the child still has an entry.
func (s *mergeSlot) load() bool {
	if !s.it.Valid() {
		s.key = nil
		return false
	}
	//fcae:view-ok the slot's key is re-read by every method that moves s.it; nothing else moves a child whose slot is in the heap
	s.key = s.it.Key()
	return true
}

func (s *mergeSlot) next() bool {
	s.it.Next()
	return s.load()
}

func (s *mergeSlot) prev() bool {
	s.it.Prev()
	return s.load()
}

// before reports whether slot i belongs above slot j in the heap.
func (m *Merging) before(i, j int) bool {
	c := keys.Compare(m.heap[i].key, m.heap[j].key)
	if m.reverse {
		return c > 0
	}
	return c < 0
}

// siftDown restores the heap below slot i.
func (m *Merging) siftDown(i int) {
	n := len(m.heap)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && m.before(r, child) {
			child = r
		}
		if !m.before(child, i) {
			return
		}
		m.heap[i], m.heap[child] = m.heap[child], m.heap[i]
		i = child
	}
}

// rebuild makes the heap from the children as they now stand.
func (m *Merging) rebuild() {
	m.heap = m.heap[:0]
	for _, c := range m.children {
		s := mergeSlot{it: c}
		if s.load() {
			m.heap = append(m.heap, s)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.inited = true
}

// settleTop restores the heap after the top slot's child moved: alive
// reports whether that child still has an entry.
func (m *Merging) settleTop(alive bool) {
	if !alive {
		n := len(m.heap) - 1
		m.heap[0] = m.heap[n]
		m.heap = m.heap[:n]
	}
	m.siftDown(0)
}

// SeekToFirst positions every child at its start.
func (m *Merging) SeekToFirst() {
	for _, c := range m.children {
		c.SeekToFirst()
	}
	m.reverse = false
	m.rebuild()
}

// SeekToLast positions every child at its end.
func (m *Merging) SeekToLast() {
	for _, c := range m.children {
		c.SeekToLast()
	}
	m.reverse = true
	m.rebuild()
}

// SeekGE positions every child at target (forward direction).
func (m *Merging) SeekGE(target []byte) {
	for _, c := range m.children {
		c.SeekGE(target)
	}
	m.reverse = false
	m.rebuild()
}

// Valid reports whether an entry is available.
func (m *Merging) Valid() bool { return m.inited && len(m.heap) > 0 }

// Key returns the extreme current key across children (smallest when
// iterating forward, largest in reverse).
func (m *Merging) Key() []byte { return m.heap[0].key }

// Value returns the value paired with Key.
func (m *Merging) Value() []byte { return m.heap[0].it.Value() }

// Next advances to the following entry, switching direction if needed.
func (m *Merging) Next() {
	if !m.Valid() {
		return
	}
	if m.reverse {
		// Reposition every non-current child after the current key.
		m.pivot = append(m.pivot[:0], m.Key()...)
		cur, top := m.pivot, m.heap[0].it
		for _, c := range m.children {
			if c == top {
				continue
			}
			c.SeekGE(cur)
			// Children sitting exactly on cur cannot exist (keys are
			// unique), so everything is strictly after it.
		}
		m.reverse = false
		top.Next()
		m.rebuild()
		return
	}
	m.settleTop(m.heap[0].next())
}

// Prev steps to the preceding entry, switching direction if needed.
func (m *Merging) Prev() {
	if !m.Valid() {
		return
	}
	if !m.reverse {
		// Reposition every non-current child before the current key.
		m.pivot = append(m.pivot[:0], m.Key()...)
		cur, top := m.pivot, m.heap[0].it
		for _, c := range m.children {
			if c == top {
				continue
			}
			c.SeekGE(cur)
			if c.Valid() {
				c.Prev() // strictly before cur
			} else {
				c.SeekToLast() // all entries < cur
			}
		}
		m.reverse = true
		top.Prev()
		m.rebuild()
		return
	}
	m.settleTop(m.heap[0].prev())
}

// Error returns the first child error.
func (m *Merging) Error() error {
	for _, c := range m.children {
		if err := c.Error(); err != nil {
			return err
		}
	}
	return nil
}

// Slice is an Iterator over in-memory entries, mainly for tests and for
// the engine simulator's decoded streams.
type Slice struct {
	Keys   [][]byte
	Values [][]byte
	pos    int
}

// NewSlice returns an iterator over parallel key/value slices, which must
// already be sorted by internal key.
func NewSlice(ks, vs [][]byte) *Slice {
	return &Slice{Keys: ks, Values: vs, pos: -1}
}

// Valid reports whether the position is in range.
func (s *Slice) Valid() bool { return s.pos >= 0 && s.pos < len(s.Keys) }

// SeekToFirst positions at index 0.
func (s *Slice) SeekToFirst() { s.pos = 0 }

// SeekToLast positions at the final entry.
func (s *Slice) SeekToLast() { s.pos = len(s.Keys) - 1 }

// SeekGE positions at the first key >= target.
func (s *Slice) SeekGE(target []byte) {
	s.pos = 0
	for s.pos < len(s.Keys) && keys.Compare(s.Keys[s.pos], target) < 0 {
		s.pos++
	}
}

// Next advances the position.
func (s *Slice) Next() { s.pos++ }

// Prev steps the position backwards.
func (s *Slice) Prev() { s.pos-- }

// Key returns the current key.
func (s *Slice) Key() []byte { return s.Keys[s.pos] }

// Value returns the current value.
func (s *Slice) Value() []byte { return s.Values[s.pos] }

// Error always returns nil.
func (s *Slice) Error() error { return nil }
