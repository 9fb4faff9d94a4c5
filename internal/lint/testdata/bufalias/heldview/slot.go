// Package heap is the clean use of //fcae:view-ok: a heap slot caches
// its child's key, and every function that moves the child through the
// slot re-reads the key afterwards, through load or with a vouched store
// of its own.
package heap

type child struct {
	keys [][]byte
	pos  int
}

func (c *child) Valid() bool   { return c.pos < len(c.keys) }
func (c *child) Key() []byte   { return c.keys[c.pos] }
func (c *child) Next()         { c.pos++ }
func (c *child) Prev()         { c.pos-- }
func (c *child) SeekToFirst()  { c.pos = 0 }
func (c *child) SeekGE([]byte) {}

type slot struct {
	it  *child
	key []byte
}

func (s *slot) load() bool {
	if !s.it.Valid() {
		s.key = nil
		return false
	}
	//fcae:view-ok re-read by every slot method that moves s.it
	s.key = s.it.Key()
	return true
}

func (s *slot) next() bool {
	s.it.Next()
	return s.load()
}

func (s *slot) rewind() bool {
	s.it.SeekToFirst()
	return s.load()
}

// back stores the view itself, right after the move, under its own
// directive.
func (s *slot) back() {
	s.it.Prev()
	//fcae:view-ok stored again directly after the move
	s.key = s.it.Key()
}

// A local alias moved and rebuilt wholesale is outside the check.
func rebuild(slots []slot, children []*child) []slot {
	slots = slots[:0]
	for _, c := range children {
		c.SeekToFirst()
		s := slot{it: c}
		if s.load() {
			slots = append(slots, s)
		}
	}
	return slots
}

// A move may also be followed by a store of something that is not a view
// at all: a walk that leaves the child behind the entry it wants keeps a
// copy taken while the child stood on it, and puts the copy in the field.
type cursor struct {
	it    *child
	key   []byte
	saved []byte
}

func (c *cursor) forward() {
	c.it.Next()
	//fcae:view-ok the child stays on the entry until the next call
	c.key = c.it.Key()
}

func (c *cursor) backward() {
	c.saved = append(c.saved[:0], c.it.Key()...)
	c.it.Prev()
	c.key = c.saved
}

// last moves and then calls a function that overwrites.
func (c *cursor) last() {
	c.it.SeekToFirst()
	c.backward()
}
