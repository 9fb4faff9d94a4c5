// Package memtable implements the mutable in-memory write buffer: a
// skiplist of (internal key, value) entries ordered by the internal-key
// comparator, exactly as in LevelDB, so that a flush ("the first type of
// compaction", paper §II-A) is a simple in-order scan into an SSTable
// builder. The list keeps key and value apart, so no entry is encoded or
// decoded here; every key and value read out of a MemTable is the list's
// own memory, valid as long as the MemTable and not to be written.
package memtable

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"fcae/internal/keys"
	"fcae/internal/skiplist"
)

// MemTable is a sorted in-memory buffer of recent writes. Add calls must be
// serialized by the caller; reads may run concurrently with one writer.
type MemTable struct {
	list *skiplist.List
	// ikey is the writer's scratch for the internal key of the entry
	// being added; the list copies it.
	ikey []byte
	// prefixes counts the two uvarint length prefixes per entry that this
	// package once stored. ApproximateSize still includes them so that a
	// memtable fills, and so rotates and flushes, at the same write.
	prefixes atomic.Int64
}

// New returns an empty MemTable. seed fixes skiplist randomness.
func New(seed int64) *MemTable {
	return &MemTable{list: skiplist.New(keys.Compare, seed)}
}

func uvarintLen(n int) int64 { return int64(bits.Len64(uint64(n)|1)+6) / 7 }

// Add inserts a (user key, value) pair at the given sequence number. kind
// distinguishes sets from deletion tombstones.
func (m *MemTable) Add(seq uint64, kind keys.Kind, user, value []byte) {
	m.ikey = keys.MakeInternal(m.ikey[:0], user, seq, kind)
	m.list.Insert(m.ikey, value)
	m.prefixes.Add(uvarintLen(len(m.ikey)) + uvarintLen(len(value)))
}

// lookups recycles the internal keys Get searches for. The list's
// comparator is a func value, so a key handed to it escapes and a buffer on
// Get's stack would be a heap allocation per call.
var lookups = sync.Pool{New: func() any { return new([]byte) }}

// Get looks up the newest entry for user visible at snapshot seq. found
// reports whether any entry exists; deleted reports a tombstone. value is
// the table's own memory, not a copy.
func (m *MemTable) Get(user []byte, seq uint64) (value []byte, deleted, found bool) {
	lookup := lookups.Get().(*[]byte)
	*lookup = keys.MakeInternal((*lookup)[:0], user, seq, keys.KindSet)
	it := m.list.NewIterator()
	it.SeekGE(*lookup)
	lookups.Put(lookup)
	if !it.Valid() {
		return nil, false, false
	}
	ikey, value := it.Key(), it.Value()
	if keys.CompareUser(keys.UserKey(ikey), user) != 0 {
		return nil, false, false
	}
	if _, kind := keys.DecodeTrailer(ikey); kind == keys.KindDelete {
		return nil, true, true
	}
	return value, false, true
}

// Len returns the number of entries.
func (m *MemTable) Len() int { return m.list.Len() }

// ApproximateSize returns the bytes consumed by stored entries, used to
// decide when the table is full and must become immutable (paper §II-A).
func (m *MemTable) ApproximateSize() int64 { return m.list.Bytes() + m.prefixes.Load() }

// Empty reports whether the table has no entries.
func (m *MemTable) Empty() bool { return m.list.Len() == 0 }

// Iterator yields entries in internal-key order: the list's iterator, whose
// keys are internal keys, with the Error method the iterator contract asks
// for.
type Iterator struct{ skiplist.Iterator }

// NewIterator returns an unpositioned iterator over the table.
func (m *MemTable) NewIterator() *Iterator {
	return &Iterator{*m.list.NewIterator()}
}

// Error always returns nil: memtable iteration cannot fail.
func (it *Iterator) Error() error { return nil }
