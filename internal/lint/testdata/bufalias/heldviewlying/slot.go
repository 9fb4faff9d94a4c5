// Package heap holds the lying uses of //fcae:view-ok: the directive
// claims the cached key is re-read whenever the child moves, and these
// functions move it and leave the stale view in place.
package heap

type child struct {
	keys [][]byte
	pos  int
}

func (c *child) Valid() bool   { return c.pos < len(c.keys) }
func (c *child) Key() []byte   { return c.keys[c.pos] }
func (c *child) Value() []byte { return c.keys[c.pos] }
func (c *child) Next()         { c.pos++ }
func (c *child) SeekGE([]byte) {}

type slot struct {
	it  *child
	key []byte
}

func (s *slot) load() {
	//fcae:view-ok re-read by every slot method that moves s.it
	s.key = s.it.Key()
}

// skip moves the child and returns with the old key still cached.
func (s *slot) skip() {
	s.it.Next()
}

// seek re-reads before the move, not after it.
func (s *slot) seek(target []byte) {
	s.load()
	s.it.SeekGE(target)
}

type holder struct{ k []byte }

// The directive cannot vouch for a view of somebody else's iterator...
func steal(h *holder, c *child) {
	//fcae:view-ok the caller promises
	h.k = c.Key()
}

// ...must say why...
func (s *slot) silent() {
	//fcae:view-ok
	s.key = s.it.Value()
}

// ...and must sit on a view store.
//
//fcae:view-ok nothing here stores a view
func idle() {}

// Storing the field's own old contents back is not a refresh.
func (s *slot) trim() {
	s.it.Next()
	s.key = s.key[:0]
}
