package lsm

import (
	"sort"

	"fcae/internal/iter"
	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/sstable"
)

// Iterator walks user keys at a fixed snapshot, in either direction.
// Entries newer than the snapshot, shadowed versions and tombstones are
// filtered out. Key/Value views are valid until the next positioning call.
// The iterator holds its read state — and with it every table of its
// version — until Close.
type Iterator struct {
	db       *DB
	seq      uint64
	state    readState
	runs     []*levelIter
	internal *iter.Merging
	err      error
	valid    bool
	reverse  bool // direction of the last positioning call
	key      []byte
	value    []byte
	closed   bool
}

// NewIterator returns an iterator over the current state of the database.
func (db *DB) NewIterator() (*Iterator, error) {
	rs, err := db.acquire()
	if err != nil {
		return nil, err
	}
	return db.newIterator(rs, rs.seq), nil
}

// newIterator builds the merged internal iterator over rs pinned at seq,
// taking over rs (Close releases it). It opens no table: every sorted run
// gets a levelIter that takes tables from the table cache as the cursor
// reaches them.
func (db *DB) newIterator(rs readState, seq uint64) *Iterator {
	it := &Iterator{db: db, seq: seq, state: rs}
	children := []iter.Iterator{rs.mem.NewIterator()}
	if rs.imm != nil {
		children = append(children, rs.imm.NewIterator())
	}
	addRun := func(files []*manifest.FileMetadata) {
		run := &levelIter{tables: db.tables, files: files}
		it.runs = append(it.runs, run)
		children = append(children, run)
	}
	// Each L0 table is its own sorted run; a leveled level is a single
	// run and a tiered level contributes several (§VII-C).
	l0 := rs.version.Levels[0]
	for i := range l0 {
		addRun(l0[i : i+1])
	}
	for level := 1; level < len(rs.version.Levels); level++ {
		for _, run := range rs.version.RunGroups(level) {
			addRun(run)
		}
	}
	it.internal = iter.NewMerging(children...)
	return it
}

// First positions at the smallest visible key.
func (it *Iterator) First() bool {
	it.internal.SeekToFirst()
	it.reverse = false
	return it.findNextUserEntry(nil)
}

// Last positions at the largest visible key.
func (it *Iterator) Last() bool {
	it.internal.SeekToLast()
	it.reverse = true
	return it.findPrevUserEntry()
}

// Seek positions at the first visible key >= userKey.
func (it *Iterator) Seek(userKey []byte) bool {
	it.internal.SeekGE(keys.MakeInternal(nil, userKey, it.seq, keys.KindSet))
	it.reverse = false
	return it.findNextUserEntry(nil)
}

// Next advances to the following visible key.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	skip := append([]byte(nil), it.key...)
	if it.reverse {
		// The internal iterator sits before the current key's span; jump
		// past every version of the current key. A zero trailer sorts
		// after all real entries of the same user key.
		it.internal.SeekGE(keys.MakeInternal(nil, skip, 0, keys.KindDelete))
		it.reverse = false
	} else {
		it.internal.Next()
	}
	return it.findNextUserEntry(skip)
}

// Prev steps to the preceding visible key.
func (it *Iterator) Prev() bool {
	if !it.valid {
		return false
	}
	if !it.reverse {
		// The internal iterator sits on the surfaced entry; step backward
		// past every version of the current key (newer, invisible
		// versions sort before it).
		cur := append([]byte(nil), it.key...)
		for it.internal.Valid() {
			p, ok := keys.Parse(it.internal.Key())
			if !ok {
				it.err = sstable.ErrCorrupt
				it.valid = false
				return false
			}
			if keys.CompareUser(p.User, cur) < 0 {
				break
			}
			it.internal.Prev()
		}
		it.reverse = true
	}
	return it.findPrevUserEntry()
}

// findNextUserEntry scans forward for the next visible entry, skipping
// entries for the user key `skip`, anything above the snapshot, shadowed
// versions and deletions.
func (it *Iterator) findNextUserEntry(skip []byte) bool {
	it.valid = false
	for it.internal.Valid() {
		ikey := it.internal.Key()
		p, ok := keys.Parse(ikey)
		if !ok {
			it.err = sstable.ErrCorrupt
			return false
		}
		switch {
		case p.Seq > it.seq:
			// Not visible in this snapshot.
		case skip != nil && keys.CompareUser(p.User, skip) == 0:
			// Older version of a key already surfaced (or deleted).
		case p.Kind == keys.KindDelete:
			skip = append(skip[:0], p.User...)
		default:
			it.key = append(it.key[:0], p.User...)
			it.value = append(it.value[:0], it.internal.Value()...)
			it.valid = true
			return true
		}
		it.internal.Next()
	}
	it.err = it.internal.Error()
	return false
}

// findPrevUserEntry scans backward for the previous visible entry
// (LevelDB's FindPrevUserEntry): walking backwards, the last visible
// entry seen for a user key before stepping past it is that key's newest
// version; a tombstone seen later (i.e. newer) discards it.
func (it *Iterator) findPrevUserEntry() bool {
	it.valid = false
	kind := keys.KindDelete // sentinel: nothing saved yet
	var savedKey, savedValue []byte
	for it.internal.Valid() {
		p, ok := keys.Parse(it.internal.Key())
		if !ok {
			it.err = sstable.ErrCorrupt
			return false
		}
		if p.Seq <= it.seq {
			if kind != keys.KindDelete && keys.CompareUser(p.User, savedKey) < 0 {
				// saved holds the newest visible version of savedKey.
				break
			}
			kind = p.Kind
			if kind == keys.KindDelete {
				savedKey = savedKey[:0]
				savedValue = savedValue[:0]
			} else {
				savedKey = append(savedKey[:0], p.User...)
				savedValue = append(savedValue[:0], it.internal.Value()...)
			}
		}
		it.internal.Prev()
	}
	if kind == keys.KindDelete {
		it.err = it.internal.Error()
		return false
	}
	it.key = append(it.key[:0], savedKey...)
	it.value = append(it.value[:0], savedValue...)
	it.valid = true
	return true
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }

// Error returns the first error encountered.
func (it *Iterator) Error() error { return it.err }

// Close releases the iterator's tables and its read state. It always
// returns nil; the error result is kept for callers that check it.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.valid = false
	for _, run := range it.runs {
		run.close()
	}
	it.db.release(it.state)
	return nil
}

// levelIter concatenates the tables of one sorted run — a level >= 1, one
// run of a tiered level, or a single L0 table — whose key ranges are
// disjoint and sorted. At most one table is open at a time, taken from the
// table cache when the cursor reaches it and returned when it leaves.
type levelIter struct {
	tables *tableCache
	files  []*manifest.FileMetadata
	idx    int          // index of the open table; meaningful while handle != nil
	handle *tableHandle // nil when no table is open
	cur    *sstable.Iterator
	err    error
}

// open makes files[i] the current table and reports whether there is one:
// false past either end of the run or when the table cannot be opened.
func (l *levelIter) open(i int) bool {
	if l.handle != nil && l.idx == i {
		return true
	}
	l.close()
	if i < 0 || i >= len(l.files) {
		return false
	}
	h, err := l.tables.get(l.files[i].Num)
	if err != nil {
		l.err = err
		return false
	}
	l.idx, l.handle, l.cur = i, h, h.reader.NewIterator()
	return true
}

// close returns the open table, leaving the iterator exhausted.
func (l *levelIter) close() {
	if l.handle != nil {
		l.tables.release(l.handle)
		l.handle, l.cur = nil, nil
	}
}

func (l *levelIter) Valid() bool { return l.err == nil && l.cur != nil && l.cur.Valid() }

func (l *levelIter) SeekToFirst() {
	if l.open(0) {
		l.cur.SeekToFirst()
		l.skipEmpty()
	}
}

// SeekGE finds the one table that can hold target by its metadata bounds
// and seeks only that.
func (l *levelIter) SeekGE(target []byte) {
	i := sort.Search(len(l.files), func(i int) bool {
		return keys.Compare(l.files[i].Largest, target) >= 0
	})
	if l.open(i) {
		l.cur.SeekGE(target)
		l.skipEmpty()
	}
}

func (l *levelIter) SeekToLast() {
	if l.open(len(l.files) - 1) {
		l.cur.SeekToLast()
		l.skipEmptyBackward()
	}
}

func (l *levelIter) Next() {
	if l.cur == nil {
		return
	}
	l.cur.Next()
	l.skipEmpty()
}

func (l *levelIter) Prev() {
	if l.cur == nil {
		return
	}
	l.cur.Prev()
	l.skipEmptyBackward()
}

// skipEmpty moves forward through the run until the cursor is on an entry,
// the run is exhausted or an error stops it.
func (l *levelIter) skipEmpty() {
	for l.err == nil && l.cur != nil && !l.cur.Valid() {
		if l.err = l.cur.Error(); l.err == nil && l.open(l.idx+1) {
			l.cur.SeekToFirst()
		}
	}
}

func (l *levelIter) skipEmptyBackward() {
	for l.err == nil && l.cur != nil && !l.cur.Valid() {
		if l.err = l.cur.Error(); l.err == nil && l.open(l.idx-1) {
			l.cur.SeekToLast()
		}
	}
}

func (l *levelIter) Key() []byte   { return l.cur.Key() }
func (l *levelIter) Value() []byte { return l.cur.Value() }
func (l *levelIter) Error() error  { return l.err }
