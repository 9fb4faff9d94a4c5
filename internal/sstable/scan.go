package sstable

// BlockScanner is how whole tables are read: a strictly forward,
// index-ordered walk over a table's data blocks that reads and decodes
// into caller-owned buffers. It bypasses the block cache on purpose — a
// compaction touches every block exactly once, and filling the cache with
// them would evict the read path's working set.

// BlockBuf holds one block's scratch: raw is the read buffer (payload +
// trailer), scratch the decode target. The bytes Next and NextRaw return
// alias one of the two, so a buffer must not be reused until they have
// been consumed; recycle the BlockBuf as a unit.
type BlockBuf struct {
	raw     []byte
	scratch []byte
}

// BlockScanner walks one table's data blocks in index order.
type BlockScanner struct {
	r  *Reader
	it BlockIter
}

// Reset points the scanner before r's first data block, reusing the
// scanner's iterator state across tables.
func (s *BlockScanner) Reset(r *Reader) {
	s.r = r
	s.it.b = r.index
	s.it.rewind()
}

// NextRaw reads the next data block into buf and returns it as stored,
// checksum verified. The payload aliases buf and the index key the
// scanner: both hold until the next call. ok is false at the end of the
// table or on error.
func (s *BlockScanner) NextRaw(buf *BlockBuf) (b RawBlock, ok bool, err error) {
	s.it.Next()
	if !s.it.Valid() {
		return RawBlock{}, false, s.it.Error()
	}
	h, _, err := DecodeHandle(s.it.Value())
	if err != nil {
		return RawBlock{}, false, err
	}
	ctype, payload, err := s.r.readBlock(h, &buf.raw)
	if err != nil {
		return RawBlock{}, false, err
	}
	return RawBlock{IndexKey: s.it.Key(), CType: ctype, Payload: payload}, true, nil
}

// Next reads the next data block into buf and returns its decoded
// contents (aliasing buf's storage). ok is false at the end of the table
// or on error.
func (s *BlockScanner) Next(buf *BlockBuf) (contents []byte, ok bool, err error) {
	b, ok, err := s.NextRaw(buf)
	if !ok {
		return nil, false, err
	}
	contents, err = DecodeBlock(&buf.scratch, b.CType, b.Payload)
	return contents, err == nil, err
}
