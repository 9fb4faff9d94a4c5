package lsm

import (
	"sort"

	"fcae/internal/iter"
	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/memtable"
	"fcae/internal/sstable"
)

// Iterator walks user keys at a fixed snapshot, in either direction.
// Entries newer than the snapshot, shadowed versions and tombstones are
// filtered out. Key and Value are views, to be read and not written, valid
// until the next positioning call or Close. The iterator holds its read
// state — and with it every table of its version — until Close; after
// Close every positioning call fails and Error reports ErrClosed.
//
// Everything a scan needs is built once, in four allocations whatever the
// version's shape: the Iterator itself (the memtable cursors, the merge
// and the scratch keys are its fields), one slab of run cursors, the
// merge's child slice and its heap.
type Iterator struct {
	db    *DB
	seq   uint64
	state readState

	mem, imm memtable.Iterator
	runs     []levelIter  // one per sorted run of the version
	internal iter.Merging // over &mem, &imm and every &runs[i]

	err     error
	valid   bool
	reverse bool // direction of the last positioning call
	closed  bool
	key     []byte
	value   []byte

	seek  []byte // the internal key Seek and a direction switch position at
	skip  []byte // the user key whose older versions the forward walk passes over
	saved []byte // the surfaced value when the cursor has moved past it (reverse)
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
	it := &Iterator{db: db, seq: seq, state: rs, mem: *rs.mem.NewIterator()}
	// Each L0 table is its own sorted run; a leveled level is a single
	// run and a tiered level contributes several (§VII-C).
	v := rs.version
	n := 0
	for level := range v.Levels {
		n += v.NumRuns(level)
	}
	it.runs = make([]levelIter, 0, n)
	for i := range v.Levels[0] {
		it.runs = append(it.runs, levelIter{tables: db.tables, files: v.Levels[0][i : i+1]})
	}
	for level := 1; level < len(v.Levels); level++ {
		for files := v.Levels[level]; len(files) > 0; {
			run := manifest.NewestRun(files)
			files = files[:len(files)-len(run)]
			it.runs = append(it.runs, levelIter{tables: db.tables, files: run})
		}
	}
	children := append(make([]iter.Iterator, 0, n+2), &it.mem)
	if rs.imm != nil {
		it.imm = *rs.imm.NewIterator()
		children = append(children, &it.imm)
	}
	for i := range it.runs {
		children = append(children, &it.runs[i])
	}
	it.internal.Reset(children)
	return it
}

// open reports whether the iterator can still be positioned. A closed one
// has given its tables and its version back, so it says ErrClosed instead
// of reading either.
func (it *Iterator) open() bool {
	if !it.closed {
		return true
	}
	if it.err == nil {
		it.err = ErrClosed
	}
	return false
}

// First positions at the smallest visible key.
func (it *Iterator) First() bool {
	if !it.open() {
		return false
	}
	it.internal.SeekToFirst()
	it.reverse = false
	return it.findNextUserEntry(false)
}

// Last positions at the largest visible key.
func (it *Iterator) Last() bool {
	if !it.open() {
		return false
	}
	it.internal.SeekToLast()
	it.reverse = true
	return it.findPrevUserEntry()
}

// Seek positions at the first visible key >= userKey.
func (it *Iterator) Seek(userKey []byte) bool {
	if !it.open() {
		return false
	}
	it.seek = keys.MakeInternal(it.seek[:0], userKey, it.seq, keys.KindSet)
	it.internal.SeekGE(it.seek)
	it.reverse = false
	return it.findNextUserEntry(false)
}

// Next advances to the following visible key.
func (it *Iterator) Next() bool {
	if !it.open() || !it.valid {
		return false
	}
	it.skip = append(it.skip[:0], it.key...)
	if it.reverse {
		// The internal iterator sits before the current key's span; jump
		// past every version of the current key. A zero trailer sorts
		// after all real entries of the same user key.
		it.seek = keys.MakeInternal(it.seek[:0], it.skip, 0, keys.KindDelete)
		it.internal.SeekGE(it.seek)
		it.reverse = false
	} else {
		it.internal.Next()
	}
	return it.findNextUserEntry(true)
}

// Prev steps to the preceding visible key.
func (it *Iterator) Prev() bool {
	if !it.open() || !it.valid {
		return false
	}
	if !it.reverse {
		// The internal iterator sits on the surfaced entry; step backward
		// past every version of the current key (newer, invisible
		// versions sort before it).
		for it.internal.Valid() {
			p, ok := keys.Parse(it.internal.Key())
			if !ok {
				it.err = sstable.ErrCorrupt
				it.valid = false
				return false
			}
			if keys.CompareUser(p.User, it.key) < 0 {
				break
			}
			it.internal.Prev()
		}
		it.reverse = true
	}
	return it.findPrevUserEntry()
}

// findNextUserEntry scans forward for the next visible entry, skipping
// anything above the snapshot, shadowed versions and deletions — and, when
// skipping is set, the entries of the user key in it.skip. It stops with
// the cursor on the entry it surfaces.
func (it *Iterator) findNextUserEntry(skipping bool) bool {
	it.valid = false
	for ; it.internal.Valid(); it.internal.Next() {
		p, ok := keys.Parse(it.internal.Key())
		if !ok {
			it.err = sstable.ErrCorrupt
			return false
		}
		switch {
		case p.Seq > it.seq:
			// Not visible in this snapshot.
		case skipping && keys.CompareUser(p.User, it.skip) == 0:
			// Older version of a key already surfaced (or deleted).
		case p.Kind == keys.KindDelete:
			it.skip = append(it.skip[:0], p.User...)
			skipping = true
		default:
			it.key = append(it.key[:0], p.User...)
			//fcae:view-ok every forward positioning call ends here with the cursor on the surfaced entry, and nothing moves the cursor between calls: the value is good for as long as Value promises
			it.value = it.internal.Value()
			it.valid = true
			return true
		}
	}
	it.err = it.internal.Error()
	return false
}

// findPrevUserEntry scans backward for the previous visible entry
// (LevelDB's FindPrevUserEntry): walking backwards, the last visible
// entry seen for a user key before stepping past it is that key's newest
// version; a tombstone seen later (i.e. newer) discards it. The cursor
// ends up before the entry it surfaces, so the value is kept as a copy.
func (it *Iterator) findPrevUserEntry() bool {
	it.valid = false
	kind := keys.KindDelete // sentinel: nothing saved yet
	it.key, it.saved = it.key[:0], it.saved[:0]
	for it.internal.Valid() {
		p, ok := keys.Parse(it.internal.Key())
		if !ok {
			it.err = sstable.ErrCorrupt
			return false
		}
		if p.Seq <= it.seq {
			if kind != keys.KindDelete && keys.CompareUser(p.User, it.key) < 0 {
				// it.key and it.saved hold the newest visible version.
				break
			}
			kind = p.Kind
			if kind == keys.KindDelete {
				it.key, it.saved = it.key[:0], it.saved[:0]
			} else {
				it.key = append(it.key[:0], p.User...)
				it.saved = append(it.saved[:0], it.internal.Value()...)
			}
		}
		it.internal.Prev()
	}
	if kind == keys.KindDelete {
		it.err = it.internal.Error()
		return false
	}
	it.value = it.saved
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

// Close releases the iterator's tables and its read state, and ends the
// life of what Key and Value returned. Closing twice is a no-op. It
// always returns nil; the error result is kept for callers that check it.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.valid, it.key, it.value = false, nil, nil
	for i := range it.runs {
		it.runs[i].close()
	}
	it.db.release(it.state)
	return nil
}

// levelIter concatenates the tables of one sorted run — a level >= 1, one
// run of a tiered level, or a single L0 table — whose key ranges are
// disjoint and sorted. At most one table is open at a time, taken from the
// table cache when the cursor reaches it and returned when it leaves; the
// one table cursor moves from table to table with its scratch.
type levelIter struct {
	tables *tableCache
	files  []*manifest.FileMetadata
	idx    int              // index of the open table; meaningful while handle != nil
	handle *tableHandle     // nil when no table is open
	cur    sstable.Iterator // over handle's table
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
	l.idx, l.handle = i, h
	l.cur.Init(h.reader)
	return true
}

// close returns the open table, leaving the iterator exhausted and its
// cursor holding no reader and no block.
func (l *levelIter) close() {
	if l.handle != nil {
		l.tables.release(l.handle)
		l.handle = nil
		l.cur.Init(nil)
	}
}

func (l *levelIter) Valid() bool { return l.err == nil && l.handle != nil && l.cur.Valid() }

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
	if l.handle == nil {
		return
	}
	l.cur.Next()
	l.skipEmpty()
}

func (l *levelIter) Prev() {
	if l.handle == nil {
		return
	}
	l.cur.Prev()
	l.skipEmptyBackward()
}

// skipEmpty moves forward through the run until the cursor is on an entry,
// the run is exhausted or an error stops it.
func (l *levelIter) skipEmpty() {
	for l.err == nil && l.handle != nil && !l.cur.Valid() {
		if l.err = l.cur.Error(); l.err == nil && l.open(l.idx+1) {
			l.cur.SeekToFirst()
		}
	}
}

func (l *levelIter) skipEmptyBackward() {
	for l.err == nil && l.handle != nil && !l.cur.Valid() {
		if l.err = l.cur.Error(); l.err == nil && l.open(l.idx-1) {
			l.cur.SeekToLast()
		}
	}
}

func (l *levelIter) Key() []byte   { return l.cur.Key() }
func (l *levelIter) Value() []byte { return l.cur.Value() }
func (l *levelIter) Error() error  { return l.err }
