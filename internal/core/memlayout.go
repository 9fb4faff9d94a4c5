package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"fcae/internal/compaction"
)

// Device memory layouts (paper §VI-B, Figs 7 and 8). The host serializes
// every compaction input into three regions per input — MetaIn, Index
// Block Memory and Data Block Memory — and DMAs them to the card's DRAM.
// Data blocks are stored WIn-aligned so the chip can stream them at WIn
// bytes per cycle; index blocks are placed continuously (they are read at
// low frequency, §V-D2).

// ErrLayout reports a malformed device memory image.
var ErrLayout = errors.New("core: corrupt device memory image")

// IndexEntry is one record of a table's index stream: the key separating
// this data block from the next, and the block's location in Data Block
// Memory. Size excludes alignment padding and includes the leading
// compression-type byte.
type IndexEntry struct {
	IndexKey []byte
	Offset   uint64
	Size     uint64
}

// TableDesc locates one SSTable inside an input image.
type TableDesc struct {
	IndexOff  uint64 // offset of the table's index stream in IndexMem
	IndexLen  uint64
	NumBlocks int
}

// InputImage is one compaction input (one sorted run) in device memory
// form: possibly several SSTables concatenated in key order (paper §IV
// step 2).
type InputImage struct {
	Tables   []TableDesc
	IndexMem []byte
	DataMem  []byte
}

// Bytes returns the total DMA payload of the image including its meta
// block, for PCIe accounting.
func (im *InputImage) Bytes() int64 {
	return int64(len(im.IndexMem)) + int64(len(im.DataMem)) + int64(16+24*len(im.Tables))
}

// IndexSlice returns the index-stream region of IndexMem described by t,
// bounds-checked. All extent arithmetic on TableDesc lives here so
// callers cannot construct an out-of-range view of Index Block Memory.
func (im *InputImage) IndexSlice(t TableDesc) ([]byte, error) {
	end := t.IndexOff + t.IndexLen
	if end < t.IndexOff || end > uint64(len(im.IndexMem)) {
		return nil, fmt.Errorf("%w: index stream out of range", ErrLayout)
	}
	return im.IndexMem[t.IndexOff:end], nil
}

// BlockSlice returns the data-block region of DataMem described by e,
// bounds-checked. Size includes the leading compression-type byte, so a
// valid block is never empty.
func (im *InputImage) BlockSlice(e IndexEntry) ([]byte, error) {
	if e.Size < 1 {
		return nil, fmt.Errorf("%w: empty data block", ErrLayout)
	}
	end := e.Offset + e.Size
	if end < e.Offset || end > uint64(len(im.DataMem)) {
		return nil, fmt.Errorf("%w: data block out of range", ErrLayout)
	}
	return im.DataMem[e.Offset:end], nil
}

// Arena is one channel's persistent device-memory staging allocation,
// modeling the card DRAM regions a job's images occupy: an index-block
// region, a data-block region and a retained-output region, carved once
// from a single backing slab and bump-allocated per job. Reset rewinds
// all three so the next compaction reuses the same backing memory — the
// point is that steady-state offload does no per-job `make`s.
//
// An Arena serves one job at a time; the owning Executor serializes jobs
// per channel. Within a job the runs' images are staged at once, each
// into a region carved for it beforehand, and the retained-output region
// is taken from at once by the run's parts, so its bump pointer and the
// high-water mark are atomic. A nil *Arena is valid everywhere and means
// "no arena" (heap allocation), for callers that build images or run the
// engine outside an executor.
type Arena struct {
	index []byte
	data  []byte
	out   []byte

	indexOff int
	dataOff  int
	outOff   atomic.Int64

	// highWater is the peak InUse ever observed, surviving Reset: the
	// figure that says how close steady-state jobs come to the carve
	// sizes, and therefore whether the arena is over- or under-provisioned.
	highWater atomic.Int64
}

// NewArena carves a staging arena from total bytes: 1/8 index region,
// 1/2 data region, the remainder for retained output. total <= 0 returns
// nil (no arena).
func NewArena(total int64) *Arena {
	if total <= 0 {
		return nil
	}
	slab := make([]byte, total)
	idx, data := arenaRegions(total)
	return &Arena{
		index: slab[:idx:idx],
		data:  slab[idx : idx+data : idx+data],
		out:   slab[idx+data:],
	}
}

// Reset rewinds all three regions; previously returned slices are dead
// after Reset and must not be retained across jobs.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.indexOff, a.dataOff = 0, 0
	a.outOff.Store(0)
}

// Cap returns the arena's total backing size in bytes; 0 for nil.
func (a *Arena) Cap() int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.index) + len(a.data) + len(a.out))
}

// InUse returns the bytes currently consumed across all regions.
func (a *Arena) InUse() int64 {
	if a == nil {
		return 0
	}
	return int64(a.indexOff+a.dataOff) + a.outOff.Load()
}

// HighWater returns the peak InUse the arena has ever reached. Unlike
// InUse it is not rewound by Reset, so it reports lifetime pressure:
// HighWater near Cap means jobs are close to spilling to heap fallback.
// 0 for nil.
func (a *Arena) HighWater() int64 {
	if a == nil {
		return 0
	}
	return a.highWater.Load()
}

// noteHighWater records the current InUse if it is a new peak.
func (a *Arena) noteHighWater() {
	u := a.InUse()
	for {
		h := a.highWater.Load()
		if u <= h || a.highWater.CompareAndSwap(h, u) {
			return
		}
	}
}

// InputBudget returns arenaInputBudget of the arena's size (0 for nil).
// The dispatcher uses it for admission; jobs above it route to CPU.
func (a *Arena) InputBudget() int64 {
	return arenaInputBudget(a.Cap())
}

// arenaRegions carves an arena of total bytes: 1/8 index region, 1/2 data
// region, the remainder for retained output.
func arenaRegions(total int64) (index, data int64) {
	return total / 8, total / 2
}

// arenaInputBudget is a conservative bound on a job's total input bytes
// such that image staging fits the data region of an arena of total bytes:
// the region size less a 1/8 margin for per-block compression-type bytes
// and alignment padding.
func arenaInputBudget(total int64) int64 {
	_, data := arenaRegions(total)
	return data - data/8
}

// indexRegion returns the unconsumed index region as an empty slice with
// the remaining capacity; appends fill the arena in place.
func (a *Arena) indexRegion() []byte {
	return a.index[a.indexOff:a.indexOff]
}

// dataRegion is indexRegion's data-side counterpart.
func (a *Arena) dataRegion() []byte {
	return a.data[a.dataOff:a.dataOff]
}

// commitStaging advances the bump pointers past a finished image's
// staged bytes, so the next builder on the same arena starts after them.
func (a *Arena) commitStaging(indexLen, dataLen int) {
	if a == nil {
		return
	}
	a.indexOff += indexLen
	a.dataOff += dataLen
	a.noteHighWater()
}

// takeOut reserves n bytes of the retained-output region, returning an
// empty slice with capacity exactly n for the caller to append into.
// ok is false when the region is exhausted (the caller heap-allocates).
// A run's parts call it at once.
func (a *Arena) takeOut(n int) (dst []byte, ok bool) {
	if a == nil {
		return nil, false
	}
	for {
		off := a.outOff.Load()
		if int64(n) > int64(len(a.out))-off {
			return nil, false
		}
		if a.outOff.CompareAndSwap(off, off+int64(n)) {
			a.noteHighWater()
			return a.out[off : off : off+int64(n)], true
		}
	}
}

// Retain implements compaction.Retainer: it copies b into the
// retained-output region, or onto the heap once the region is full.
func (a *Arena) Retain(b []byte) []byte {
	if dst, ok := a.takeOut(len(b)); ok {
		// takeOut pre-carved exactly len(b) capacity, so this append cannot grow.
		return append(dst, b...)
	}
	//fcae:alloc-ok a kept block outlives the merge loop; the output region is full
	return append([]byte(nil), b...)
}

// carve reserves idx bytes of the index region and data bytes of the
// data region past what the job has staged, as an arena of their own: a
// run stages its image into it while the job's other runs stage into
// theirs. The reservation counts as occupied. A nil arena carves nil, and
// the run stages on the heap.
func (a *Arena) carve(idx, data int) (*Arena, error) {
	if a == nil {
		return nil, nil
	}
	if a.indexOff+idx > len(a.index) {
		return nil, fmt.Errorf("%w: index region (%d staged, run needs %d, cap %d)",
			compaction.ErrArenaExhausted, a.indexOff, idx, len(a.index))
	}
	if a.dataOff+data > len(a.data) {
		return nil, fmt.Errorf("%w: data region (%d staged, run needs %d, cap %d)",
			compaction.ErrArenaExhausted, a.dataOff, data, len(a.data))
	}
	sub := &Arena{
		index: a.index[a.indexOff : a.indexOff+idx : a.indexOff+idx],
		data:  a.data[a.dataOff : a.dataOff+data : a.dataOff+data],
	}
	a.commitStaging(idx, data)
	return sub, nil
}

// InputBuilder assembles an InputImage table by table. With an arena
// attached (NewInputBuilderArena) the image's index and data memory are
// staged inside the arena's regions and AddBlock reports
// compaction.ErrArenaExhausted when a block would overflow them; without
// one, appends grow heap slices and AddBlock never fails.
type InputBuilder struct {
	img   InputImage
	align int
	arena *Arena
}

// NewInputBuilderArena returns a builder staging the image inside a (nil
// means heap allocation). Builders on the same arena must be finished in
// sequence; Finish commits the staged bytes.
func NewInputBuilderArena(wIn int, a *Arena) *InputBuilder {
	if wIn < 1 {
		wIn = 1
	}
	b := &InputBuilder{align: wIn, arena: a}
	if a != nil {
		b.img.IndexMem = a.indexRegion()
		b.img.DataMem = a.dataRegion()
	}
	return b
}

// BeginTable starts a new SSTable within the input.
func (b *InputBuilder) BeginTable() {
	b.img.Tables = append(b.img.Tables, TableDesc{
		IndexOff: uint64(len(b.img.IndexMem)),
	})
}

// AddBlock appends one raw data block (compression-type byte + payload)
// and its index entry to the current table. On an arena-backed builder it
// returns an error wrapping compaction.ErrArenaExhausted when the block
// would overflow a staging region; heap-backed builders never fail.
func (b *InputBuilder) AddBlock(indexKey []byte, ctype byte, payload []byte) error {
	if b.arena != nil {
		// Conservative worst-case growth so append can never reallocate
		// out of the arena: ctype + payload + full alignment pad on the
		// data side, three max-width varints + key on the index side.
		dataNeed := 1 + len(payload) + b.align
		idxNeed := len(indexKey) + 3*binary.MaxVarintLen64
		if len(b.img.DataMem)+dataNeed > cap(b.img.DataMem) {
			return fmt.Errorf("%w: data region (%d staged, block needs %d, cap %d)",
				compaction.ErrArenaExhausted, len(b.img.DataMem), dataNeed, cap(b.img.DataMem))
		}
		if len(b.img.IndexMem)+idxNeed > cap(b.img.IndexMem) {
			return fmt.Errorf("%w: index region (%d staged, entry needs %d, cap %d)",
				compaction.ErrArenaExhausted, len(b.img.IndexMem), idxNeed, cap(b.img.IndexMem))
		}
	}
	if len(b.img.Tables) == 0 {
		b.BeginTable()
	}
	t := &b.img.Tables[len(b.img.Tables)-1]

	// Data Block Memory: ctype byte + payload, padded to alignment.
	off := uint64(len(b.img.DataMem))
	b.img.DataMem = append(b.img.DataMem, ctype)
	b.img.DataMem = append(b.img.DataMem, payload...)
	size := uint64(len(b.img.DataMem)) - off
	for len(b.img.DataMem)%b.align != 0 {
		b.img.DataMem = append(b.img.DataMem, 0)
	}

	// Index stream entry.
	e := IndexEntry{IndexKey: indexKey, Offset: off, Size: size}
	b.img.IndexMem = appendIndexEntry(b.img.IndexMem, e)
	t.IndexLen = uint64(len(b.img.IndexMem)) - t.IndexOff
	t.NumBlocks++
	return nil
}

// Finish returns the completed image. On an arena-backed builder it also
// commits the staged bytes, so a following builder on the same arena
// (the job's next run) starts past them.
func (b *InputBuilder) Finish() *InputImage {
	if b.arena != nil {
		b.arena.commitStaging(len(b.img.IndexMem), len(b.img.DataMem))
	}
	return &b.img
}

func appendIndexEntry(dst []byte, e IndexEntry) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.IndexKey)))]...)
	dst = append(dst, e.IndexKey...)
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], e.Offset)]...)
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], e.Size)]...)
	return dst
}

// indexStream decodes a table's index stream on the device side.
type indexStream struct {
	buf []byte
}

func (s *indexStream) next() (IndexEntry, error) {
	var e IndexEntry
	kl, n := binary.Uvarint(s.buf)
	if n <= 0 || uint64(len(s.buf)-n) < kl {
		return e, fmt.Errorf("%w: bad index key length", ErrLayout)
	}
	e.IndexKey = s.buf[n : n+int(kl)]
	s.buf = s.buf[n+int(kl):]
	off, n := binary.Uvarint(s.buf)
	if n <= 0 {
		return e, fmt.Errorf("%w: bad index offset", ErrLayout)
	}
	s.buf = s.buf[n:]
	size, n := binary.Uvarint(s.buf)
	if n <= 0 {
		return e, fmt.Errorf("%w: bad index size", ErrLayout)
	}
	s.buf = s.buf[n:]
	e.Offset, e.Size = off, size
	return e, nil
}

func (s *indexStream) empty() bool { return len(s.buf) == 0 }
