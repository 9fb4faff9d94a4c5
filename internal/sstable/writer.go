package sstable

import (
	"fmt"
	"io"
	"sync"

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
	Entries    int
	DataBlocks int
	FileSize   int64
	Smallest   []byte
	Largest    []byte
}

// regionSize is how much of a table reaches the io.Writer at a time.
// 64 KiB is where the store's fill stopped improving (EXPERIMENTS.md,
// "Bulk I/O"): a 2 MiB table in 33 writes instead of a thousand.
const regionSize = 64 << 10

// Writer builds an SSTable from internal keys added in increasing order.
//
// The index block grows as data blocks are written. A block's entry waits
// for the next key, so that its separator can be the shortest key between
// the two blocks (IndexKey): pendingHandle holds the one block that is
// written but not yet indexed, and lastKey is still its last key.
//
// Blocks are sealed into a region and the region is handed to the
// io.Writer whole, when it fills and at Finish. A write error therefore
// surfaces from a later Add than the one whose block it lost, or from
// Finish — from one of them always, and every later call repeats it.
type Writer struct {
	w      io.Writer
	opts   Options
	data   *blockBuilder
	index  *blockBuilder
	filter bloom.Filter

	// offset is the table's logical size: every block sealed so far,
	// handed over or not. Handles and Full, and so every cut point, are
	// made from it, which is what keeps them independent of regionSize.
	offset int64
	// region holds the table's bytes [offset-len(region), offset), sealed
	// and not yet handed to w. A compressed payload is encoded straight
	// into its tail, so the region costs a compressed block no copy; its
	// capacity is regionSize plus room for the largest block met.
	region []byte

	pendingHandle Handle // the block awaiting its index entry
	hasPending    bool

	// filterHashes holds bloom.Hash of every user key added: all the
	// filter block, built at Finish, needs of them.
	filterHashes []uint32
	// meta and filterBuf build the metaindex and filter blocks at Finish,
	// kept for the next table of a writer that is reset.
	meta       *blockBuilder
	filterBuf  []byte
	stats      WriterStats
	lastKey    []byte
	enc        *snappy.Encoder // from encoders, by the first block compressed
	sepScratch []byte
	handleBuf  []byte
	err        error
	finished   bool
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

// reset makes w an empty writer emitting its next table to dst, keeping
// its buffers.
func (w *Writer) reset(dst io.Writer) {
	w.w = dst
	w.data.reset()
	w.index.reset()
	w.offset, w.region = 0, w.region[:0]
	w.hasPending = false
	w.filterHashes = w.filterHashes[:0]
	w.stats = WriterStats{}
	w.lastKey = w.lastKey[:0]
	w.err, w.finished = nil, false
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
// under its IndexKey below the upcoming key (nil at the end of the table).
// No entry has been added since the block was sealed, so lastKey is the
// block's.
func (w *Writer) flushPendingIndex(upcoming []byte) {
	if !w.hasPending {
		return
	}
	w.sepScratch = IndexKey(w.sepScratch[:0], w.lastKey, upcoming)
	w.addIndexEntry(w.sepScratch, w.pendingHandle)
	w.hasPending = false
}

// addIndexEntry maps key to the data block at h.
func (w *Writer) addIndexEntry(key []byte, h Handle) {
	w.handleBuf = h.EncodeTo(w.handleBuf[:0])
	w.index.add(key, w.handleBuf)
	w.stats.DataBlocks++
}

// finishDataBlock compresses and writes the current data block.
func (w *Writer) finishDataBlock() {
	if w.data.empty() || w.err != nil {
		return
	}
	h, err := w.writeBlock(w.data.finish(), w.opts.Compression)
	if err != nil {
		w.err = err
		return
	}
	w.data.reset()
	w.pendingHandle, w.hasPending = h, true
}

// writeBlock stores contents (compressing per c) plus the trailer and
// returns its handle. The compressed form is built where it will lie.
func (w *Writer) writeBlock(contents []byte, c Compression) (Handle, error) {
	if c == SnappyCompression {
		if w.enc == nil {
			w.enc = encoders.Get().(*snappy.Encoder)
		}
		tail := w.tail(snappy.MaxEncodedLen(len(contents)) + BlockTrailerSize)
		if ctype, payload := EncodeBlock(w.enc, &tail, contents, c); ctype != byte(NoCompression) {
			return w.seal(ctype, len(payload))
		}
	}
	return w.writeSealed(byte(NoCompression), contents)
}

// filterKey names the filter block in the metaindex.
var filterKey = []byte("filter." + bloom.Filter{}.Name())

// encoders lends Writers their snappy match-finder table, 32 KiB: a
// table's data blocks share one, and it goes back when the last of them
// is sealed.
var encoders = sync.Pool{New: func() any { return new(snappy.Encoder) }}

// tail returns the region's unused end, empty and with room for n bytes.
// The region grows to make it: it is handed over when full, never to make
// room, so every write but a table's last carries at least regionSize.
func (w *Writer) tail(n int) []byte {
	if cap(w.region)-len(w.region) < n {
		//fcae:alloc-ok once per table, to regionSize, and again only for a block larger than what is left
		grown := make([]byte, len(w.region), max(regionSize, len(w.region))+n)
		copy(grown, w.region)
		w.region = grown
	}
	return w.region[len(w.region):]
}

// writeSealed stores a block payload as it stands — already compressed,
// or to be stored raw — followed by the trailer sealing it, and returns
// the block's handle.
func (w *Writer) writeSealed(ctype byte, payload []byte) (Handle, error) {
	copy(w.tail(len(payload) + BlockTrailerSize)[:len(payload)], payload)
	return w.seal(ctype, len(payload))
}

// seal closes the block whose n payload bytes lie at the region's tail:
// the trailer goes after them, the offset moves past both, and a region
// that is now full goes to the file. The one place a block joins the table.
func (w *Writer) seal(ctype byte, n int) (Handle, error) {
	end := len(w.region) + n
	return w.sealed(ctype, n, PayloadSum(w.region[end-n:end]))
}

// sealed is seal for a payload whose PayloadSum is sum.
func (w *Writer) sealed(ctype byte, n int, sum uint32) (Handle, error) {
	end := len(w.region) + n
	w.region = w.region[:end+BlockTrailerSize]
	sealSum((*[BlockTrailerSize]byte)(w.region[end:]), ctype, sum)
	h := Handle{Offset: uint64(w.offset), Size: uint64(n)}
	w.offset += SealedSize(n)
	if len(w.region) < regionSize {
		return h, nil
	}
	return h, w.flushRegion()
}

// flushRegion hands the region to the file in one Write.
func (w *Writer) flushRegion() error {
	_, err := w.w.Write(w.region)
	w.region = w.region[:0]
	return err
}

// Full reports whether the data blocks sealed so far make the table
// TableFull at limit. Only data blocks are sealed before Finish.
func (w *Writer) Full(limit int64) bool { return TableFull(w.offset, limit) }

// Entries returns the number of entries added so far.
func (w *Writer) Entries() int { return w.stats.Entries }

// Finish seals the open data block and writes the filter, metaindex and
// index blocks and the footer, returning the final table stats. A nil
// error means every byte of the table has been handed to the io.Writer —
// nothing stays behind in the region — so a Sync the caller issues next
// covers the whole file.
func (w *Writer) Finish() (WriterStats, error) {
	if w.err == nil && !w.finished {
		w.finishDataBlock()
		w.flushPendingIndex(nil)
		w.stats.Largest = append([]byte(nil), w.lastKey...)
	}
	return w.finishTable()
}

// finishTable writes what follows a table's data blocks, each of them
// sealed and indexed by now.
func (w *Writer) finishTable() (WriterStats, error) {
	if w.err != nil {
		return w.stats, w.err
	}
	if w.finished {
		return w.stats, fmt.Errorf("sstable: Finish called twice")
	}
	w.finished = true
	if w.enc != nil {
		//fcae:alloc-ok a pointer goes into the interface as it is: Put boxes nothing
		encoders.Put(w.enc)
		w.enc = nil
	}

	// Filter block (uncompressed).
	if w.meta == nil {
		w.meta = newBlockBuilder(1)
	}
	w.meta.reset()
	if w.opts.FilterBitsPerKey > 0 && len(w.filterHashes) > 0 {
		w.filterBuf = w.filter.AppendHashes(w.filterBuf[:0], w.filterHashes)
		h, err := w.writeBlock(w.filterBuf, NoCompression)
		if err != nil {
			w.err = err
			return w.stats, err
		}
		w.handleBuf = h.EncodeTo(w.handleBuf[:0])
		w.meta.add(filterKey, w.handleBuf)
	}
	metaHandle, err := w.writeRawBlock(w.meta.finish())
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
	w.region = footer.AppendTo(w.region)
	if err := w.flushRegion(); err != nil {
		w.err = err
		return w.stats, err
	}
	w.offset += FooterSize
	w.stats.FileSize = w.offset
	return w.stats, nil
}

// writeRawBlock stores a block without compression.
func (w *Writer) writeRawBlock(contents []byte) (Handle, error) {
	return w.writeBlock(contents, NoCompression)
}
