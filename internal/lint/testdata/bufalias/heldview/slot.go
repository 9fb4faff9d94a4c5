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
