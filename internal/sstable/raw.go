package sstable

import (
	"io"
	"slices"
)

// Raw block access for the FCAE engine: the host splits input tables into
// index entries plus raw (still compressed) data blocks when building the
// device memory images, and recombines the engine's output blocks into
// standard tables afterwards (paper §V-B: "the host is in charge of
// combining data blocks with index blocks into new formatted SSTables").

// RawBlock is one data block as stored in the file: the compression-type
// byte and the (possibly compressed) payload, checksum already verified.
type RawBlock struct {
	// IndexKey is the index entry's separator key (>= every key in the
	// block, < every key in the next block).
	IndexKey []byte
	CType    byte
	Payload  []byte
}

// VisitRawBlocks calls visit for every data block in index order. The
// scanner's window is recycled under the blocks: b's bytes are valid for
// the call only, and a visitor that keeps any copies them.
func (r *Reader) VisitRawBlocks(visit func(b RawBlock) error) error {
	var sc BlockScanner
	sc.Reset(r)
	for {
		b, ok, err := sc.NextRaw()
		if !ok || err != nil {
			return err
		}
		if err := visit(b); err != nil {
			return err
		}
	}
}

// BlockWriter builds one data block's contents in the standard format,
// exposed for the engine's Data Block Encoder.
type BlockWriter struct {
	b *blockBuilder
}

// NewBlockWriter returns an empty builder with the given restart interval
// (0 selects Options.WithDefaults').
func NewBlockWriter(restartInterval int) *BlockWriter {
	opts := Options{RestartInterval: restartInterval}.WithDefaults()
	return &BlockWriter{b: newBlockBuilder(opts.RestartInterval)}
}

// Add appends an entry; keys must strictly increase.
func (w *BlockWriter) Add(key, value []byte) { w.b.add(key, value) }

// EstimatedSize returns the finished size of the block so far.
func (w *BlockWriter) EstimatedSize() int { return w.b.estimatedSize() }

// Entries returns the number of entries added.
func (w *BlockWriter) Entries() int { return w.b.entries }

// Empty reports whether nothing has been added.
func (w *BlockWriter) Empty() bool { return w.b.empty() }

// Reset empties the builder.
func (w *BlockWriter) Reset() { w.b.reset() }

// Grow makes room for n bytes of contents.
func (w *BlockWriter) Grow(n int) { w.b.buf = slices.Grow(w.b.buf, n) }

// Finish returns the completed block contents and resets the builder.
func (w *BlockWriter) Finish() []byte {
	// The copy is the API contract: the caller keeps the block, the builder's buffer is reused.
	out := append([]byte(nil), w.b.finish()...)
	w.b.reset()
	return out
}

// FinishInto appends the completed block contents to dst and resets the
// builder. Unlike Finish it makes no fresh copy: callers own dst (usually
// reused scratch) and must copy before the next block if they retain it.
func (w *BlockWriter) FinishInto(dst []byte) []byte {
	out := append(dst, w.b.finish()...)
	w.b.reset()
	return out
}

// Assembler writes a standard table file from pre-encoded raw data blocks,
// the host-side combiner for merge output. Each block is indexed under a
// key its caller has already decided, with IndexKey, and the assembler
// decides nothing: given the blocks, keys, bounds and filter hashes a
// Writer would have produced, it produces that Writer's file.
type Assembler struct {
	w *Writer
}

// NewAssembler returns an assembler writing to w. opts.Compression is
// ignored (blocks arrive already encoded); FilterBitsPerKey attaches a
// bloom filter when filter hashes are supplied.
func NewAssembler(w io.Writer, opts Options) *Assembler {
	return &Assembler{w: NewWriter(w, opts)}
}

// Reset makes a an empty assembler writing its next table to w, keeping
// its buffers.
func (a *Assembler) Reset(w io.Writer) { a.w.reset(w) }

// AddRawBlock appends one pre-encoded block and its index entry. indexKey
// is any key at or above the block's last and below the next block's
// first, and is used verbatim; ctype/payload are written verbatim with a
// fresh checksum trailer.
func (a *Assembler) AddRawBlock(indexKey []byte, ctype byte, payload []byte, entries int) error {
	if err := a.AddBlock(ctype, payload, PayloadSum(payload), entries, nil); err != nil {
		return err
	}
	a.Index(indexKey)
	return nil
}

// AddBlock appends one pre-encoded block of entries entries, written
// verbatim and sealed with a trailer extending sum, its PayloadSum, and
// copies hashes (the bloom.Hash of each entry's user key) for the filter.
// The block is indexed by the Index call that must follow before the
// next AddBlock or Finish, once its caller knows what comes after it.
func (a *Assembler) AddBlock(ctype byte, payload []byte, sum uint32, entries int, hashes []uint32) error {
	w := a.w
	if w.err != nil {
		return w.err
	}
	copy(w.tail(len(payload) + BlockTrailerSize)[:len(payload)], payload)
	h, err := w.sealed(ctype, len(payload), sum)
	if err != nil {
		w.err = err
		return err
	}
	w.pendingHandle, w.hasPending = h, true
	w.stats.Entries += entries
	if w.opts.FilterBitsPerKey > 0 {
		w.filterHashes = append(w.filterHashes, hashes...)
	}
	return nil
}

// Index maps key to the block AddBlock appended last.
func (a *Assembler) Index(key []byte) {
	if a.w.hasPending {
		a.w.addIndexEntry(key, a.w.pendingHandle)
		a.w.hasPending = false
	}
}

// Full reports whether the blocks appended so far make the table
// TableFull at limit.
func (a *Assembler) Full(limit int64) bool { return a.w.Full(limit) }

// SetBounds records the table's smallest and largest internal keys.
func (a *Assembler) SetBounds(smallest, largest []byte) {
	//fcae:alloc-ok once per table: its bounds outlive it, in what Finish returns
	a.w.stats.Smallest = append([]byte(nil), smallest...)
	//fcae:alloc-ok as above
	a.w.stats.Largest = append([]byte(nil), largest...)
}

// Finish writes the filter, metaindex and index blocks and the footer.
func (a *Assembler) Finish() (WriterStats, error) { return a.w.finishTable() }
