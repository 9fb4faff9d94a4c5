package sstable

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"fcae/internal/bloom"
	"fcae/internal/cache"
	"fcae/internal/keys"
)

// Reader provides random access to a finished table.
type Reader struct {
	f       io.ReaderAt
	size    int64
	opts    Options
	index   *block
	filter  []byte
	cache   *cache.Cache
	cacheID uint64
}

// NewReader opens the table stored in f. blockCache may be nil; cacheID
// must be unique per file when a cache is shared.
func NewReader(f io.ReaderAt, size int64, opts Options, blockCache *cache.Cache, cacheID uint64) (*Reader, error) {
	opts = opts.WithDefaults()
	r := &Reader{f: f, size: size, opts: opts, cache: blockCache, cacheID: cacheID}
	if size < FooterSize {
		return nil, fmt.Errorf("%w: file of %d bytes has no footer", ErrCorrupt, size)
	}
	var fbuf [FooterSize]byte
	if _, err := r.readAt(fbuf[:], size-FooterSize); err != nil {
		return nil, err
	}
	footer, err := DecodeFooter(fbuf[:])
	if err != nil {
		return nil, err
	}
	idxContents, err := r.readUncached(footer.Index)
	if err != nil {
		return nil, err
	}
	if r.index, err = newBlock(idxContents, keys.Compare); err != nil {
		return nil, err
	}
	if err := r.loadFilter(footer.MetaIndex); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) loadFilter(metaH Handle) error {
	if metaH.Size == 0 {
		return nil
	}
	contents, err := r.readUncached(metaH)
	if err != nil {
		return err
	}
	meta, err := newBlock(contents, bytes.Compare)
	if err != nil {
		return err
	}
	it := meta.iter()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if bytes.HasPrefix(it.Key(), []byte("filter.")) {
			h, _, err := DecodeHandle(it.Value())
			if err != nil {
				return err
			}
			fb, err := r.readUncached(h)
			if err != nil {
				return err
			}
			r.filter = fb
			return nil
		}
	}
	return it.Error()
}

// NumBlocks is how many data blocks the table's index lists. Every index
// entry is a restart point (the writer indexes at interval 1), so this is
// exact for the tables this package writes and a presizing hint otherwise.
func (r *Reader) NumBlocks() int { return len(r.index.restarts) }

// IndexSize is the size of the table's index block: no less than the
// bytes of the index keys it holds.
func (r *Reader) IndexSize() int { return len(r.index.data) }

// readBlockContents returns the contents of the data block at h,
// consulting the block cache.
func (r *Reader) readBlockContents(h Handle) ([]byte, error) {
	if r.cache == nil {
		return r.readUncached(h)
	}
	key := cache.Key{ID: r.cacheID, Offset: h.Offset}
	if v, ok := r.cache.Get(key); ok {
		return v, nil
	}
	contents, err := r.readUncached(h)
	if err == nil {
		r.cache.Set(key, contents)
	}
	return contents, err
}

// readBufs recycles the buffer a stored block is read into, which is
// garbage as soon as a compressed block is decoded out of it.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReadBuf bounds what readBufs keeps: one table with a huge block
// must not leave a buffer of that size behind every reader.
const maxPooledReadBuf = 1 << 20

// readUncached reads, verifies and decodes the block at h; the contents
// are the caller's. The index, metaindex and filter blocks come straight
// through here: the reader keeps them in its own fields for its lifetime,
// so a cached copy could never be hit and would only evict data blocks.
func (r *Reader) readUncached(h Handle) ([]byte, error) {
	raw := readBufs.Get().(*[]byte)
	var contents []byte
	ctype, payload, err := r.readBlock(h, raw)
	if err == nil {
		var decoded []byte
		contents, err = DecodeBlock(&decoded, ctype, payload)
		if Compression(ctype) == NoCompression {
			*raw = nil // the contents are the buffer: it leaves with them
		}
	}
	if cap(*raw) > maxPooledReadBuf {
		*raw = nil
	}
	readBufs.Put(raw)
	return contents, err
}

// MayContain consults the table bloom filter for a user key. It returns
// true when no filter is present. The stored filter is self-describing
// (probe count in its trailing byte), so no policy — and in particular no
// bits-per-key guess — is needed at read time.
func (r *Reader) MayContain(userKey []byte) bool {
	if r.filter == nil {
		return true
	}
	return bloom.MayContain(r.filter, userKey)
}

// pointRead is what a Get needs besides the table: the two-level cursor
// and the internal key it seeks. Both are recycled, so a Get's only
// allocation is the value it returns.
type pointRead struct {
	it     Iterator
	lookup []byte
}

var pointReads = sync.Pool{New: func() any { return new(pointRead) }}

// Get returns the value for the newest entry of userKey visible at seq.
// The value is a copy.
func (r *Reader) Get(userKey []byte, seq uint64) (value []byte, deleted, found bool, err error) {
	value, deleted, found, _, err = r.Lookup(userKey, seq)
	return value, deleted, found, err
}

// Lookup is Get that also reports whether the table's data blocks were
// consulted: false when the filter ruled userKey out, a probe that read
// nothing. The store counts filter negatives and block misses by it.
func (r *Reader) Lookup(userKey []byte, seq uint64) (value []byte, deleted, found, consulted bool, err error) {
	if !r.MayContain(userKey) {
		return nil, false, false, false, nil
	}
	p := pointReads.Get().(*pointRead)
	value, deleted, found, err = p.get(r, userKey, seq)
	p.it.Init(nil)
	pointReads.Put(p)
	return value, deleted, found, true, err
}

func (p *pointRead) get(r *Reader, userKey []byte, seq uint64) (value []byte, deleted, found bool, err error) {
	p.lookup = keys.MakeInternal(p.lookup[:0], userKey, seq, keys.KindSet)
	it := &p.it
	it.Init(r)
	it.SeekGE(p.lookup)
	if err := it.Error(); err != nil {
		return nil, false, false, err
	}
	if !it.Valid() {
		return nil, false, false, nil
	}
	ik := it.Key()
	if keys.CompareUser(keys.UserKey(ik), userKey) != 0 {
		return nil, false, false, nil
	}
	_, kind := keys.DecodeTrailer(ik)
	if kind == keys.KindDelete {
		return nil, true, true, nil
	}
	return append([]byte(nil), it.Value()...), false, true, nil
}

// Iterator is a two-level iterator over the table's index and data
// blocks. It owns one BlockIter per level and re-points the data one at
// each block it crosses, so the key scratch and restart array are
// allocated once per Iterator, not per block; Init moves the whole cursor
// to another table the same way. The zero Iterator is ready for Init.
type Iterator struct {
	r      *Reader
	index  BlockIter // shares r.index
	data   BlockIter
	loaded bool // data stands on the block of index's current entry
	err    error
}

// NewIterator returns an unpositioned iterator over the table.
func (r *Reader) NewIterator() *Iterator {
	it := new(Iterator)
	it.Init(r)
	return it
}

// Init makes it an unpositioned iterator over r's table, dropping whatever
// table it walked before. Init(nil) only drops: the iterator then holds no
// reader and no block, just its scratch, and must be Init'ed again before
// use.
func (it *Iterator) Init(r *Reader) {
	it.r = r
	it.loaded = false
	it.err = nil
	it.data.drop()
	if r == nil {
		it.index.drop()
		return
	}
	it.index.share(r.index)
}

// loadData opens the data block referenced by the current index entry.
func (it *Iterator) loadData() bool {
	it.loaded = false
	if !it.index.Valid() {
		return false
	}
	h, _, err := DecodeHandle(it.index.Value())
	if err != nil {
		it.err = err
		return false
	}
	contents, err := it.r.readBlockContents(h)
	if err != nil {
		it.err = err
		return false
	}
	if err := it.data.Reset(contents); err != nil {
		it.err = err
		return false
	}
	it.loaded = true
	return true
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool {
	return it.err == nil && it.loaded && it.data.Valid()
}

// Key returns the current internal key.
func (it *Iterator) Key() []byte { return it.data.Key() }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.data.Value() }

// Error returns the first error encountered.
func (it *Iterator) Error() error {
	if it.err != nil {
		return it.err
	}
	if it.loaded && it.data.Error() != nil {
		return it.data.Error()
	}
	return it.index.Error()
}

// SeekGE positions at the first entry with internal key >= target.
func (it *Iterator) SeekGE(target []byte) {
	it.index.SeekGE(target)
	if !it.loadData() {
		return
	}
	it.data.SeekGE(target)
	it.skipForwardEmpty()
}

// SeekToFirst positions at the table's first entry.
func (it *Iterator) SeekToFirst() {
	it.index.SeekToFirst()
	if !it.loadData() {
		return
	}
	it.data.SeekToFirst()
	it.skipForwardEmpty()
}

// SeekToLast positions at the table's final entry.
func (it *Iterator) SeekToLast() {
	it.index.SeekToLast()
	if !it.loadData() {
		return
	}
	it.data.SeekToLast()
	it.skipBackwardEmpty()
}

// Next advances to the following entry, crossing block boundaries.
func (it *Iterator) Next() {
	if !it.loaded {
		return
	}
	it.data.Next()
	it.skipForwardEmpty()
}

// Prev steps to the preceding entry, crossing block boundaries.
func (it *Iterator) Prev() {
	if !it.loaded {
		return
	}
	it.data.Prev()
	it.skipBackwardEmpty()
}

func (it *Iterator) skipForwardEmpty() {
	for it.err == nil && (!it.loaded || !it.data.Valid()) {
		if it.loaded && it.data.Error() != nil {
			it.err = it.data.Error()
			return
		}
		it.index.Next()
		if !it.index.Valid() {
			it.loaded = false
			return
		}
		if !it.loadData() {
			return
		}
		it.data.SeekToFirst()
	}
}

func (it *Iterator) skipBackwardEmpty() {
	for it.err == nil && (!it.loaded || !it.data.Valid()) {
		if it.loaded && it.data.Error() != nil {
			it.err = it.data.Error()
			return
		}
		it.index.Prev()
		if !it.index.Valid() {
			it.loaded = false
			return
		}
		if !it.loadData() {
			return
		}
		it.data.SeekToLast()
	}
}
