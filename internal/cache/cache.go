// Package cache implements a sharded LRU cache, used as the store's block
// cache. Entries are keyed by (file id, block offset) and charged by byte
// size.
package cache

import (
	"sync"
	"sync/atomic"
)

const shardCount = 16

// Key identifies a cached block.
type Key struct {
	ID     uint64 // table file number
	Offset uint64 // block offset within the file
}

// Cache is a fixed-capacity sharded LRU. The zero value is unusable; call
// New.
type Cache struct {
	hits   atomic.Int64
	misses atomic.Int64
	shards [shardCount]shard
}

// New returns a cache bounded to capacity bytes in total.
func New(capacity int64) *Cache {
	c := &Cache{}
	per := capacity / shardCount
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].table = make(map[Key]*entry)
	}
	return c
}

// shard spreads the blocks of one table over every shard: the offset is
// mixed in before the high bits are taken, because offsets inside a file
// are far below 2^32 and on their own never reach those bits.
func (c *Cache) shard(k Key) *shard {
	h := (k.ID*0x9e3779b97f4a7c15 ^ k.Offset) * 0xff51afd7ed558ccd
	return &c.shards[(h>>32)%shardCount]
}

// Get returns the cached value for k, if present.
func (c *Cache) Get(k Key) ([]byte, bool) {
	v, ok := c.shard(k).get(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Stats returns the lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// Set inserts v under k, evicting LRU entries to stay within capacity.
func (c *Cache) Set(k Key, v []byte) { c.shard(k).set(k, v) }

// EvictFile drops all entries belonging to file id.
func (c *Cache) EvictFile(id uint64) {
	for i := range c.shards {
		c.shards[i].evictFile(id)
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].table)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Size returns the resident bytes.
func (c *Cache) Size() int64 {
	var n int64
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].used
		c.shards[i].mu.Unlock()
	}
	return n
}

type entry struct {
	key        Key
	value      []byte
	prev, next *entry
}

// shard is one LRU segment. The sentinel head's next is the most recently
// used entry.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	table    map[Key]*entry
	head     entry // sentinel; head.next = MRU, head.prev = LRU
	init     bool
}

func (s *shard) lazyInitLocked() {
	if !s.init {
		s.head.next = &s.head
		s.head.prev = &s.head
		s.init = true
	}
}

func (s *shard) get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lazyInitLocked()
	e, ok := s.table[k]
	if !ok {
		return nil, false
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
	return e.value, true
}

func (s *shard) set(k Key, v []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lazyInitLocked()
	if e, ok := s.table[k]; ok {
		s.used += int64(len(v)) - int64(len(e.value))
		e.value = v
		s.unlinkLocked(e)
		s.pushFrontLocked(e)
	} else {
		e := &entry{key: k, value: v}
		s.table[k] = e
		s.pushFrontLocked(e)
		s.used += int64(len(v))
	}
	for s.used > s.capacity && s.head.prev != &s.head {
		s.evictLocked(s.head.prev)
	}
}

func (s *shard) evictFile(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lazyInitLocked()
	for k, e := range s.table {
		if k.ID == id {
			s.evictLocked(e)
		}
	}
}

func (s *shard) evictLocked(e *entry) {
	s.unlinkLocked(e)
	delete(s.table, e.key)
	s.used -= int64(len(e.value))
}

func (s *shard) unlinkLocked(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *shard) pushFrontLocked(e *entry) {
	e.prev = &s.head
	e.next = s.head.next
	e.prev.next = e
	e.next.prev = e
}
