package sstable

import (
	"fmt"
	"io"

	"fcae/internal/bloom"
	"fcae/internal/keys"
	"fcae/internal/snappy"
)

// Options configure table building and reading. The defaults mirror the
// paper's LevelDB settings (Table IV): 4 KiB data blocks, snappy
// compression, 16-entry restart interval.
type Options struct {
	// BlockSize is the uncompressed data block size threshold.
	BlockSize int
	// RestartInterval is the entry count between restart points.
	RestartInterval int
	// Compression selects the per-block codec.
	Compression Compression
	// FilterBitsPerKey enables a whole-table bloom filter when > 0.
	FilterBitsPerKey int
}

// WithDefaults fills unset fields. This is the one place the block size
// and restart interval defaults are written; the store's options and the
// simulator derive theirs from it.
func (o Options) WithDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.RestartInterval <= 0 {
		o.RestartInterval = 16
	}
	return o
}

// WriterStats summarizes a finished table.
type WriterStats struct {
	Entries     int
	DataBlocks  int
	FileSize    int64
	RawDataSize int64 // uncompressed data-block bytes
	Smallest    []byte
	Largest     []byte
}

// Writer builds an SSTable from internal keys added in increasing order.
//
// The index block grows as data blocks are written. A block's entry waits
// for the next key, so that its separator can be the shortest key between
// the two blocks: pendingKey and pendingHandle hold the one block that is
// written but not yet indexed.
type Writer struct {
	w      io.Writer
	opts   Options
	data   *blockBuilder
	index  *blockBuilder
	filter bloom.Filter

	offset        int64
	pendingKey    []byte // last key of the block awaiting its index entry
	pendingHandle Handle
	hasPending    bool

	// filterHashes holds bloom.Hash of every user key added: all the
	// filter block, built at Finish, needs of them.
	filterHashes []uint32
	stats        WriterStats
	lastKey      []byte
	enc          *snappy.Encoder // made by the first block compressed
	cbuf         []byte
	trailer      [BlockTrailerSize]byte // scratch: a local would escape through w.w.Write, once per block
	sepScratch   []byte
	handleBuf    []byte
	err          error
	finished     bool
}

// NewWriter returns a Writer emitting the table to w.
func NewWriter(w io.Writer, opts Options) *Writer {
	opts = opts.WithDefaults()
	tw := &Writer{
		w:     w,
		opts:  opts,
		data:  newBlockBuilder(opts.RestartInterval),
		index: newBlockBuilder(1),
	}
	if opts.FilterBitsPerKey > 0 {
		tw.filter = bloom.New(opts.FilterBitsPerKey)
	}
	return tw
}

// Add appends an entry. Internal keys must strictly increase under
// keys.Compare.
func (w *Writer) Add(ikey, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return fmt.Errorf("sstable: Add after Finish")
	}
	if len(w.lastKey) > 0 && keys.Compare(ikey, w.lastKey) <= 0 {
		w.err = fmt.Errorf("sstable: keys out of order: %x <= %x", ikey, w.lastKey)
		return w.err
	}
	w.flushPendingIndex(ikey)

	if w.stats.Entries == 0 {
		w.stats.Smallest = append([]byte(nil), ikey...)
	}
	w.lastKey = append(w.lastKey[:0], ikey...)
	w.stats.Entries++
	if w.opts.FilterBitsPerKey > 0 {
		w.filterHashes = append(w.filterHashes, bloom.Hash(keys.UserKey(ikey)))
	}

	w.data.add(ikey, value)
	if w.data.estimatedSize() >= w.opts.BlockSize {
		w.finishDataBlock()
	}
	return w.err
}

// flushPendingIndex emits the index entry of the previous data block,
// using the shortest separator below the upcoming key.
func (w *Writer) flushPendingIndex(upcoming []byte) {
	if !w.hasPending {
		return
	}
	// The MaxSeq trailer is only safe when the separator user key is
	// STRICTLY greater than the block's last user key; otherwise
	// (user, MaxSeq) would sort before the block's own entries and seeks
	// at older snapshot sequences would skip the block. Fall back to the
	// full last internal key in that case, exactly as LevelDB's
	// FindShortestSeparator does.
	sep := w.pendingKey
	pendingUser := keys.UserKey(w.pendingKey)
	var u []byte
	if upcoming != nil {
		u = keys.Separator(pendingUser, keys.UserKey(upcoming))
	} else {
		u = keys.Successor(pendingUser)
	}
	if keys.CompareUser(u, pendingUser) > 0 {
		w.sepScratch = keys.MakeInternal(w.sepScratch[:0], u, keys.MaxSeq, keys.KindSet)
		sep = w.sepScratch
	}
	w.addIndexEntry(sep)
}

// addIndexEntry maps sep to the pending block's handle.
func (w *Writer) addIndexEntry(sep []byte) {
	w.handleBuf = w.pendingHandle.EncodeTo(w.handleBuf[:0])
	w.index.add(sep, w.handleBuf)
	w.hasPending = false
}

// finishDataBlock compresses and writes the current data block.
func (w *Writer) finishDataBlock() {
	if w.data.empty() || w.err != nil {
		return
	}
	contents := w.data.finish()
	w.stats.RawDataSize += int64(len(contents))
	h, err := w.writeBlock(contents, w.opts.Compression)
	if err != nil {
		w.err = err
		return
	}
	w.data.reset()
	w.setPending(h, w.lastKey)
}

// setPending records a written data block as awaiting its index entry.
func (w *Writer) setPending(h Handle, lastKey []byte) {
	w.pendingHandle = h
	w.pendingKey = append(w.pendingKey[:0], lastKey...)
	w.hasPending = true
	w.stats.DataBlocks++
}

// writeBlock writes contents (compressing per c) plus the trailer and
// returns its handle.
func (w *Writer) writeBlock(contents []byte, c Compression) (Handle, error) {
	if w.enc == nil && c != NoCompression {
		w.enc = new(snappy.Encoder)
	}
	return w.writeSealed(EncodeBlock(w.enc, &w.cbuf, contents, c))
}

// EstimatedSize returns the bytes written so far plus the buffered block.
func (w *Writer) EstimatedSize() int64 {
	return w.offset + int64(w.data.estimatedSize())
}

// Entries returns the number of entries added so far.
func (w *Writer) Entries() int { return w.stats.Entries }

// Finish writes the filter, metaindex, index blocks and footer, returning
// the final table stats.
func (w *Writer) Finish() (WriterStats, error) {
	if w.err != nil {
		return w.stats, w.err
	}
	if w.finished {
		return w.stats, fmt.Errorf("sstable: Finish called twice")
	}
	w.finished = true
	w.finishDataBlock()
	w.flushPendingIndex(nil)
	if w.err != nil {
		return w.stats, w.err
	}

	// Filter block (uncompressed).
	meta := newBlockBuilder(1)
	if w.opts.FilterBitsPerKey > 0 && len(w.filterHashes) > 0 {
		fb := w.filter.AppendHashes(nil, w.filterHashes)
		h, err := w.writeBlock(fb, NoCompression)
		if err != nil {
			w.err = err
			return w.stats, err
		}
		meta.add([]byte("filter."+w.filter.Name()), h.EncodeTo(nil))
	}
	metaHandle, err := w.writeRawBlock(meta.finish())
	if err != nil {
		w.err = err
		return w.stats, err
	}
	indexHandle, err := w.writeRawBlock(w.index.finish())
	if err != nil {
		w.err = err
		return w.stats, err
	}
	footer := Footer{MetaIndex: metaHandle, Index: indexHandle}
	if _, err := w.w.Write(footer.Encode()); err != nil {
		w.err = err
		return w.stats, err
	}
	w.offset += FooterSize
	w.stats.FileSize = w.offset
	w.stats.Largest = append([]byte(nil), w.lastKey...)
	return w.stats, nil
}

// writeRawBlock stores a block without compression.
func (w *Writer) writeRawBlock(contents []byte) (Handle, error) {
	return w.writeBlock(contents, NoCompression)
}
