package lsm

import (
	"container/list"
	"sync"

	"fcae/internal/cache"
	"fcae/internal/sstable"
	"fcae/internal/vfs"
)

// tableCache keeps open table readers, bounded by an LRU on open tables.
// Each table is opened by openTable, mapped into memory where the host
// allows it. Readers are handed out as ref-counted tableHandles: eviction
// only drops the cache's own claim, and the table is closed (unmapped) by
// whoever lets go last, so neither the LRU nor a table deletion takes a
// table away from under a reader.
type tableCache struct {
	mu       sync.Mutex
	fs       vfs.FS
	dir      string
	opts     sstable.Options
	block    *cache.Cache
	capacity int
	entries  map[uint64]*tableHandle
	lru      *list.List // front = MRU; values are *tableHandle
	hits     int64
	misses   int64
	mapped   int64 // bytes mapped by the handles not yet closed
}

// tableHandle is one open table. The reader is valid between get and the
// matching release.
type tableHandle struct {
	num    uint64
	f      tableFile
	mapped int64 // bytes of f mapped into memory
	reader *sstable.Reader
	// refs counts outstanding gets and elem is nil once the cache has
	// evicted the table; both are guarded by tableCache.mu.
	refs int
	elem *list.Element
}

func newTableCache(fsys vfs.FS, dir string, opts sstable.Options, block *cache.Cache, capacity int) *tableCache {
	if capacity < 16 {
		capacity = 16
	}
	return &tableCache{
		fs:       fsys,
		dir:      dir,
		opts:     opts,
		block:    block,
		capacity: capacity,
		entries:  make(map[uint64]*tableHandle),
		lru:      list.New(),
	}
}

// get returns a handle on table num, opening the file on a miss. Every get
// is paired with a release.
func (tc *tableCache) get(num uint64) (*tableHandle, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if h, ok := tc.entries[num]; ok {
		tc.hits++
		tc.lru.MoveToFront(h.elem)
		h.refs++
		return h, nil
	}
	tc.misses++
	f, size, mapped, err := openTable(tc.fs, tablePath(tc.dir, num))
	if err != nil {
		return nil, err
	}
	r, err := sstable.NewReader(f, size, tc.opts, tc.block, num)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	h := &tableHandle{num: num, f: f, mapped: mapped, reader: r, refs: 1}
	tc.mapped += mapped
	h.elem = tc.lru.PushFront(h)
	tc.entries[num] = h
	for len(tc.entries) > tc.capacity {
		tc.evictLocked(tc.lru.Back().Value.(*tableHandle))
	}
	return h, nil
}

// release returns a handle obtained from get.
func (tc *tableCache) release(h *tableHandle) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	h.refs--
	if h.refs == 0 && h.elem == nil {
		tc.closeLocked(h)
	}
}

// evict drops the cached reader for num (after the file is deleted).
func (tc *tableCache) evict(num uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if h, ok := tc.entries[num]; ok {
		tc.evictLocked(h)
	}
	if tc.block != nil {
		tc.block.EvictFile(num)
	}
}

func (tc *tableCache) evictLocked(h *tableHandle) {
	tc.lru.Remove(h.elem)
	h.elem = nil
	delete(tc.entries, h.num)
	if h.refs == 0 {
		tc.closeLocked(h)
	}
}

// closeLocked closes a handle nobody holds any more, unmapping its table.
func (tc *tableCache) closeLocked(h *tableHandle) {
	// Read-only handle; nothing buffered can be lost.
	_ = h.f.Close()
	tc.mapped -= h.mapped
}

// stats returns the lifetime hit and miss counts of the reader LRU.
func (tc *tableCache) stats() (hits, misses int64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.hits, tc.misses
}

// mappedBytes returns the bytes of table files the cache holds mapped,
// evicted tables that readers still hold included.
func (tc *tableCache) mappedBytes() int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.mapped
}

// close evicts every table and stops caching: handles still out (an
// iterator that outlives the DB) stay readable and close on release.
func (tc *tableCache) close() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.capacity = 0
	for tc.lru.Len() > 0 {
		tc.evictLocked(tc.lru.Back().Value.(*tableHandle))
	}
}
