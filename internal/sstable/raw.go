package sstable

import (
	"io"
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
// the host-side combiner for engine output. Each block arrives with the
// key it is indexed under — the engine's output builder has already
// decided it, with IndexKey — and the assembler decides nothing: given
// the blocks, keys, bounds and filter hashes a Writer would have produced,
// it produces that Writer's file.
type Assembler struct {
	w *Writer
}

// NewAssembler returns an assembler writing to w. opts.Compression is
// ignored (blocks arrive already encoded); FilterBitsPerKey attaches a
// bloom filter when filter hashes are supplied.
func NewAssembler(w io.Writer, opts Options) *Assembler {
	return &Assembler{w: NewWriter(w, opts)}
}

// AddRawBlock appends one pre-encoded block and its index entry. indexKey
// is any key at or above the block's last and below the next block's
// first, and is used verbatim; ctype/payload are written verbatim with a
// fresh checksum trailer.
func (a *Assembler) AddRawBlock(indexKey []byte, ctype byte, payload []byte, entries int) error {
	if a.w.err != nil {
		return a.w.err
	}
	h, err := a.w.writeSealed(ctype, payload)
	if err != nil {
		a.w.err = err
		return err
	}
	a.w.addIndexEntry(indexKey, h)
	a.w.stats.Entries += entries
	return nil
}

// SetBounds records the table's smallest and largest internal keys (from
// the engine's MetaOut).
func (a *Assembler) SetBounds(smallest, largest []byte) {
	a.w.stats.Smallest = append([]byte(nil), smallest...)
	a.w.stats.Largest = append([]byte(nil), largest...)
}

// AddFilterHashes registers the bloom.Hash of user keys for the bloom
// filter. The assembler keeps hashes until Finish, without copying them.
func (a *Assembler) AddFilterHashes(hashes []uint32) {
	if a.w.opts.FilterBitsPerKey > 0 {
		if a.w.filterHashes == nil {
			a.w.filterHashes = hashes[:len(hashes):len(hashes)]
			return
		}
		a.w.filterHashes = append(a.w.filterHashes, hashes...)
	}
}

// Finish writes the filter, metaindex and index blocks and the footer.
func (a *Assembler) Finish() (WriterStats, error) { return a.w.finishTable() }
