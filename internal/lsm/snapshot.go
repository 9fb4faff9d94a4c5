package lsm

// Snapshot is a consistent read view at a fixed sequence number. While a
// snapshot is live, compactions retain the entry versions it can observe.
type Snapshot struct {
	db  *DB
	seq uint64
}

// NewSnapshot captures the current state. Release it when done so
// compactions can reclaim shadowed entries.
func (db *DB) NewSnapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{db: db, seq: db.seq}
	db.snapshots[s.seq]++
	return s
}

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Get reads key as of the snapshot. The returned slice is a copy: it is
// the caller's to keep and to write.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	rs, err := s.db.acquire()
	if err != nil {
		return nil, err
	}
	defer s.db.release(rs)
	return s.db.getAt(key, s.seq, rs)
}

// NewIterator returns an iterator over the snapshot's view.
func (s *Snapshot) NewIterator() (*Iterator, error) {
	rs, err := s.db.acquire()
	if err != nil {
		return nil, err
	}
	return s.db.newIterator(rs, s.seq), nil
}

// Release drops the snapshot's pin on old entry versions. Releasing twice
// is a no-op.
func (s *Snapshot) Release() {
	if s.db == nil {
		return
	}
	db := s.db
	s.db = nil
	db.mu.Lock()
	defer db.mu.Unlock()
	if n := db.snapshots[s.seq]; n > 1 {
		db.snapshots[s.seq] = n - 1
	} else {
		delete(db.snapshots, s.seq)
	}
}
