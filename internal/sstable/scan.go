package sstable

// BlockScanner is how whole tables are read: a strictly forward,
// index-ordered walk over a table's data blocks that reads and decodes
// into buffers its caller keeps. It bypasses the block cache on purpose — a
// compaction touches every block exactly once, and filling the cache with
// them would evict the read path's working set.
//
// It reads through a window instead: one ReadAt of scanWindow bytes
// (clipped to the file) serves every block whose handle lies inside it,
// so a table costs a read per window, not per block. The window belongs
// to the scanner and a scanner to one sorted run — Reset moves it from
// table to table and keeps the buffer — so a merge holds one window per
// input run for as long as it runs, and nothing outlives the merge. That
// is also why the window is no substitute for the cache and does not feed
// it: it holds stored bytes (compressed, trailer and all) that exactly one
// reader will ever ask for, in the order it asks.

// scanWindow is how much of a table one read brings in. 256 KiB is where
// the store's fill stopped improving (EXPERIMENTS.md, "Bulk I/O"): a
// 2 MiB table in eight reads instead of five hundred.
const scanWindow = 256 << 10

// BlockScanner walks one table's data blocks in index order.
type BlockScanner struct {
	r  *Reader
	it BlockIter

	// win holds the file's bytes [winOff, winOff+len(win)). Its capacity
	// is max(scanWindow, the largest block met), never more than the size
	// of the largest file scanned.
	win    []byte
	winOff int64

	// held is set by Seek: the index iterator already stands on the
	// block the next call returns.
	held bool
}

// Reset points the scanner before r's first data block, reusing the
// scanner's iterator state and window buffer across tables.
func (s *BlockScanner) Reset(r *Reader) {
	s.r = r
	s.it.share(r.index)
	s.win = s.win[:0]
	s.held = false
}

// Seek points the scanner before the first of r's data blocks that may
// hold internal key target or a later one: the block whose index key is
// the first at or past target. Earlier blocks are never read, so a walk
// over part of a table costs that part and one straddling block.
func (s *BlockScanner) Seek(r *Reader, target []byte) {
	s.Reset(r)
	s.it.SeekGE(target)
	s.held = true
}

// NextHandle steps to the next data block's index entry without reading
// the block and returns its handle; Key is its index key. ok is false at
// the end of the table or on error.
func (s *BlockScanner) NextHandle() (h Handle, ok bool, err error) {
	if s.held {
		s.held = false
	} else {
		s.it.Next()
	}
	if !s.it.Valid() {
		return Handle{}, false, s.it.Error()
	}
	h, _, err = DecodeHandle(s.it.Value())
	return h, err == nil, err
}

// Key is the index key of the block the scanner last stepped to, valid
// until the next call.
func (s *BlockScanner) Key() []byte { return s.it.Key() }

// NextRaw returns the next data block as stored, handle bounded and
// checksum verified exactly as readBlock does. The payload aliases the
// scanner's window and the index key its iterator: both hold until the
// next call. ok is false at the end of the table or on error.
func (s *BlockScanner) NextRaw() (b RawBlock, ok bool, err error) {
	h, ok, err := s.NextHandle()
	if !ok {
		return RawBlock{}, false, err
	}
	if err := s.r.checkHandle(h); err != nil {
		return RawBlock{}, false, err
	}
	raw, err := s.fetch(int64(h.Offset), int(h.Size)+BlockTrailerSize)
	if err != nil {
		return RawBlock{}, false, err
	}
	ctype, payload, err := verifyBlock(h, raw)
	if err != nil {
		return RawBlock{}, false, err
	}
	return RawBlock{IndexKey: s.it.Key(), CType: ctype, Payload: payload}, true, nil
}

// fetch returns the n bytes stored at off, which checkHandle has held to
// the file. Bytes inside the window cost nothing; anything else — the
// next window's first block, a block an out-of-order index points back
// to — refills the window starting at off.
func (s *BlockScanner) fetch(off int64, n int) ([]byte, error) {
	if off < s.winOff || off+int64(n) > s.winOff+int64(len(s.win)) {
		want := int(min(int64(max(n, scanWindow)), s.r.size-off))
		if cap(s.win) < want {
			s.win = make([]byte, want)
		}
		// A file shorter than its recorded size ends the window early.
		// That is this block's error only if this block is cut; a later
		// one finds it when it refills.
		got, err := s.r.readAt(s.win[:want], off)
		s.win, s.winOff = s.win[:got], off
		if got < n {
			return nil, err
		}
	}
	return s.win[off-s.winOff:][:n], nil
}
