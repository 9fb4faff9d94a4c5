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
// The index block is built at Finish from two parallel records: seps
// (one separator per data block, computed when the next key — and so the
// shortest separator — is known) and handles (one Handle per data block,
// recorded in write order). Keeping them separate is what lets the
// asynchronous encode pipeline hand completed blocks to workers while the
// merge keeps adding entries: the separator is known on the producing
// side long before the block's final file offset is. The sequential path
// records both inline, so a table's bytes are identical either way.
type Writer struct {
	w      io.Writer
	opts   Options
	data   *blockBuilder
	filter bloom.Filter

	offset     int64
	pendingKey []byte // last key of the block awaiting a separator
	hasPending bool

	// Deferred index entries: sepBuf/sepEnds is a flat encoding of one
	// separator key per finished data block; handles holds the written
	// blocks' handles in the same order.
	sepBuf  []byte
	sepEnds []int
	handles []Handle

	// filterHashes holds bloom.Hash of every user key added: all the
	// filter block, built at Finish, needs of them.
	filterHashes []uint32
	stats        WriterStats
	lastKey      []byte
	enc          *snappy.Encoder // made by the first block compressed inline
	cbuf         []byte
	trailer      [BlockTrailerSize]byte // scratch: a local would escape through w.w.Write, once per block
	sepScratch   []byte
	err          error
	finished     bool

	// async is non-nil when the writer hands finished data blocks to an
	// EncodePipeline instead of encoding them inline (see pipeline.go).
	async *asyncWriter
}

// NewWriter returns a Writer emitting the table to w.
func NewWriter(w io.Writer, opts Options) *Writer {
	opts = opts.WithDefaults()
	tw := &Writer{
		w:    w,
		opts: opts,
		data: newBlockBuilder(opts.RestartInterval),
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

// flushPendingIndex records the deferred separator for the previous data
// block, using the shortest separator below the upcoming key. The index
// entry itself is emitted by finishTail once the block's handle is known.
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
	w.recordSep(sep)
	w.hasPending = false
}

// recordSep appends one separator to the flat deferred-index record.
func (w *Writer) recordSep(sep []byte) {
	w.sepBuf = append(w.sepBuf, sep...)
	w.sepEnds = append(w.sepEnds, len(w.sepBuf))
}

// finishDataBlock compresses and writes the current data block — or, in
// async mode, hands its contents to the encode pipeline.
func (w *Writer) finishDataBlock() {
	if w.data.empty() || w.err != nil {
		return
	}
	contents := w.data.finish()
	w.stats.RawDataSize += int64(len(contents))
	if w.async != nil {
		w.stageAsync(contents)
	} else {
		h, err := w.writeBlock(contents, w.opts.Compression)
		if err != nil {
			w.err = err
			return
		}
		w.handles = append(w.handles, h)
		w.data.reset()
	}
	w.pendingKey = append(w.pendingKey[:0], w.lastKey...)
	w.hasPending = true
	w.stats.DataBlocks++
}

// writeBlock writes contents (compressing per c) plus the trailer and
// returns its handle.
func (w *Writer) writeBlock(contents []byte, c Compression) (Handle, error) {
	if w.enc == nil && c != NoCompression {
		w.enc = new(snappy.Encoder)
	}
	return w.writePreEncodedBlock(EncodeBlock(w.enc, &w.cbuf, contents, c))
}

// EstimatedSize returns the bytes written so far plus the buffered block.
func (w *Writer) EstimatedSize() int64 {
	return w.offset + int64(w.data.estimatedSize())
}

// Entries returns the number of entries added so far.
func (w *Writer) Entries() int { return w.stats.Entries }

// Finish writes the filter, metaindex, index blocks and footer, returning
// the final table stats. Async writers must use FinishAsync instead: their
// tail is written by the pipeline's sequencer once every data block is on
// disk.
func (w *Writer) Finish() (WriterStats, error) {
	if w.err != nil {
		return w.stats, w.err
	}
	if w.finished {
		return w.stats, fmt.Errorf("sstable: Finish called twice")
	}
	if w.async != nil {
		return w.stats, fmt.Errorf("sstable: Finish on an async writer (use FinishAsync)")
	}
	w.finished = true
	w.finishDataBlock()
	w.flushPendingIndex(nil)
	if w.err != nil {
		return w.stats, w.err
	}
	return w.finishTail()
}

// finishTail writes the filter, metaindex and index blocks plus the
// footer. In async mode it runs on the pipeline's sequencer goroutine
// after the last data block has been written; by then the producing side
// has stopped touching the writer (the finish hand-off orders the two).
func (w *Writer) finishTail() (WriterStats, error) {
	if w.async != nil && w.async.werr != nil {
		return w.stats, w.async.werr
	}
	if len(w.sepEnds) != len(w.handles) {
		w.err = fmt.Errorf("sstable: internal: %d separators for %d data blocks", len(w.sepEnds), len(w.handles))
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
	// Pair the recorded separators with the written handles, in block
	// order. The builder sees the same entry sequence the incremental
	// build did, so the index block's bytes are unchanged.
	index := newBlockBuilder(1)
	var hbuf []byte
	start := 0
	for i, end := range w.sepEnds {
		hbuf = w.handles[i].EncodeTo(hbuf[:0])
		index.add(w.sepBuf[start:end], hbuf)
		start = end
	}
	indexHandle, err := w.writeRawBlock(index.finish())
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
