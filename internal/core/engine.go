package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// Params configure one engine run (the host sets these per job).
type Params struct {
	// BlockSize is the uncompressed output data block threshold (§V-A:
	// "when the size of a data block reaches a threshold (e.g., 4KB)").
	BlockSize int
	// TableBytes is the output SSTable size threshold (§V-A: "the size of
	// an SSTable also has a threshold (e.g., 2MB)").
	TableBytes int64
	// RestartInterval for output blocks.
	RestartInterval int
	// Compress selects snappy re-compression of output blocks (§V-A: "the
	// selected keys are compressed using snappy compression").
	Compress bool
	// SmallestSnapshot and BottomLevel drive the Validity Check module's
	// drop decisions (§V-A: "if the Delete flag is set, this key-value
	// should be considered invalid").
	SmallestSnapshot uint64
	BottomLevel      bool
	// Cuts are user keys, strictly ascending, that cut the merge into key
	// ranges, merged apart and at once: part i holds the user keys in
	// [cut i-1, cut i), so an output block ends at each cut whatever its
	// size; a table goes on across it. The host passes the cuts of
	// compaction's cut rule, the key ranges the CPU lane merges apart, so
	// both lanes write the same files. The cycle count does not depend on
	// them beyond those block ends.
	Cuts [][]byte
	// CollectFilterKeys keeps the bloom.Hash of every kept user key with
	// its output block, so the host can attach bloom filters while
	// combining the output.
	CollectFilterKeys bool
	// Tables, when set, takes the run's output blocks in key order as the
	// parts drain, and ends and writes the tables; Run finishes it. A run
	// without it times the merge and keeps no output.
	Tables *compaction.Tables
	// Arena, when non-nil, holds the output blocks of parts merged beside
	// the calling goroutine until they drain (payloads and keys) instead
	// of per-block heap copies. The caller owns the arena's lifetime;
	// output slices die at its Reset.
	Arena *Arena

	// TraceWriter, when set, receives a CSV stream of per-selection
	// pipeline timestamps (cycle numbers for FIFO-head readiness, Comparer
	// start/end, Transfer end, Encoder end) — a software waveform of the
	// Fig 5 pipeline. TraceLimit bounds the number of traced selections
	// (default 1000).
	TraceWriter io.Writer
	TraceLimit  int
}

// blockOpts is the output blocks' format.
func (p Params) blockOpts() sstable.Options {
	o := sstable.Options{BlockSize: p.BlockSize, RestartInterval: p.RestartInterval}
	if p.Compress {
		o.Compression = sstable.SnappyCompression
	}
	return o
}

func (p Params) withDefaults() Params {
	t := sstable.Options{BlockSize: p.BlockSize, RestartInterval: p.RestartInterval}.WithDefaults()
	p.BlockSize, p.RestartInterval = t.BlockSize, t.RestartInterval
	if p.TableBytes <= 0 {
		p.TableBytes = 2 << 20
	}
	return p
}

// Stats reports one engine run's outcome.
type Stats struct {
	Cycles       float64
	PairsIn      int
	PairsOut     int
	PairsDropped int
	BytesIn      int64 // device DRAM bytes read
	// BytesOut is the device DRAM bytes written: the output data blocks,
	// WOut-aligned, and the fixed part of an index entry per block (its
	// key is the host's, chosen at assembly).
	BytesOut int64
	// Per-stage busy cycles, for bottleneck analysis and the ablation
	// benches. DecoderBusy is the busiest single lane.
	DecoderBusy  float64
	ComparerBusy float64
	TransferBusy float64
	EncoderBusy  float64
}

// KernelTime converts cycles to wall time at the engine clock.
//
//fcae:cycle-accounting
func (s Stats) KernelTime() time.Duration {
	return time.Duration(s.Cycles / ClockHz * float64(time.Second))
}

// PairsTime is the kernel time of pairs pairs at the run's cycles per
// pair: what a merge of the run's shape and pairs pairs takes.
//
//fcae:cycle-accounting
func (s Stats) PairsTime(pairs int64) time.Duration {
	if s.PairsIn == 0 {
		return 0
	}
	return time.Duration(float64(pairs) * s.Cycles / float64(s.PairsIn) / ClockHz * float64(time.Second))
}

// Bottleneck names the run's busiest stage, the one that bounds the
// pipeline (§V-D1: "the module with the longest cycles determines the
// average execution time").
func (s Stats) Bottleneck() string {
	name, busy := "decoder", s.DecoderBusy
	if s.ComparerBusy > busy {
		name, busy = "comparer", s.ComparerBusy
	}
	if s.TransferBusy > busy {
		name, busy = "transfer", s.TransferBusy
	}
	if s.EncoderBusy > busy {
		name = "encoder"
	}
	return name
}

// Result is the engine's run statistics; the tables went to
// Params.Tables.
type Result struct {
	Stats Stats
}

// ErrTooManyInputs is returned when a job exceeds the engine's decoder
// lanes; the host must fall back to software compaction (§VI-A).
var ErrTooManyInputs = errors.New("core: job exceeds engine input lanes")

// A run is two passes. The functional pass (enginePart.merge) merges one
// key-range part of the inputs: its decoder lanes, the Key Compare, the
// Validity Check and the encoder, keeping a pairRecord of each selected
// pair and handing its sealed blocks on towards Params.Tables. The timing
// pass (timing) replays the records in key order over the whole stream,
// one pipeline, charging every stage its cycles. The parts are merged at
// once on the host (compaction.RunParts, the CPU lane's scheme), so the
// simulator uses every core, while the cycle count stays the card's one
// pipeline's: each record carries all the timing pass needs of its pair,
// and the replay needs no lookahead. Where a table ends is decided at
// assembly (compaction.Tables), from the blocks in key order, and the
// timing pass makes the same decision from the records, so it charges a
// table's close where the host closes it.

// pairRecord is the functional pass's account of one selected pair: its
// lane and size (the stage periods follow from them), whether it was
// dropped, the SealedSize of the block it sealed (0 if none), whether it
// begins a new user key, and the winner lane's next head as the pass
// peeked it on advancing: its size, whether it opens a data block (the
// decoder's block switch), and whether there is one at all. newUser is
// read only for a kept pair that begins a block.
type pairRecord struct {
	keyLen, valueLen                    uint32
	nextKeyLen, nextValueLen            uint32
	sealed                              uint32
	lane                                int32
	dropped, nextFirst, nextOK, newUser bool
}

// recordChunk is how many records a part merged on the calling
// goroutine keeps before the timing pass replays them.
const recordChunk = 512

// recordBuf holds a buffered part's records until its turn to replay.
type recordBuf struct{ recs []pairRecord }

var recordBufs sync.Pool

// maxPooledRecords bounds what recordBufs keeps: one huge merge must not
// leave buffers of its size behind.
const maxPooledRecords = 1 << 18

func getRecordBuf() *recordBuf {
	if b, ok := recordBufs.Get().(*recordBuf); ok {
		b.recs = b.recs[:0]
		return b
	}
	return &recordBuf{}
}

// release returns the buffer to the pool; a nil buffer is ignored.
func (b *recordBuf) release() {
	if b != nil && cap(b.recs) <= maxPooledRecords {
		//fcae:alloc-ok a pointer goes into the interface as it is: Put boxes nothing
		recordBufs.Put(b)
	}
}

// lane is one decoder path of the functional pass: index stream + data
// block decoding for one sorted input.
type lane struct {
	img      *InputImage
	tableIdx int
	index    indexStream
	blocks   int // blocks remaining in current table's index
	// seek, until the lane's first pair, is the part's least internal
	// key, (lo, MaxSeq): blocks indexed below it are passed over and the
	// first block read is sought into.
	seek []byte
	// it is the lane's persistent block iterator, Reset onto each new
	// data block so the decode loop does no per-block parse allocation;
	// itLive marks whether it currently holds undrained entries.
	it     sstable.BlockIter
	itLive bool
	decomp []byte

	key, value []byte
	first      bool // the head is its data block's first entry
	live       bool
}

// Engine is a configured FCAE instance. One Engine processes one job at a
// time (the chip has a single pipeline); the host serializes jobs.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Run merges the input images into output table images, accounting device
// cycles. Inputs must each be internally sorted; len(inputs) must not
// exceed the configured N. The merge is done in the key ranges p.Cuts
// makes, at once on up to GOMAXPROCS goroutines; the cycle count is the
// one pipeline's over the whole stream.
//
//fcae:cycle-accounting
func (e *Engine) Run(inputs []*InputImage, p Params) (*Result, error) {
	if len(inputs) == 0 {
		return &Result{}, nil
	}
	if len(inputs) > e.cfg.N {
		return nil, fmt.Errorf("%w: %d inputs, engine has N=%d", ErrTooManyInputs, len(inputs), e.cfg.N)
	}
	p = p.withDefaults()

	res := &Result{}
	for _, img := range inputs {
		res.Stats.BytesIn += img.Bytes()
	}
	t := &timing{cfg: e.cfg, stats: &res.Stats, tableBytes: p.TableBytes, blockDone: true, trace: p.TraceWriter, traceLimit: p.TraceLimit}
	if t.traceLimit <= 0 {
		t.traceLimit = 1000
	}
	chunk := getRecordBuf()
	t.chunk = slices.Grow(chunk.recs, recordChunk)
	parts := make([]enginePart, len(p.Cuts)+1)
	for i, c := range p.Cuts {
		parts[i].hi, parts[i+1].lo = c, c
	}
	for i := range parts {
		parts[i].want = res.Stats.BytesIn / int64(len(parts))
	}
	err := compaction.RunParts(len(parts),
		func(k int) error { return parts[k].merge(inputs, p, t) },
		func(k int) { parts[k].err = parts[k].merge(inputs, p, nil) },
		func(k int) error { return parts[k].drain(t, p.Tables) })
	chunk.recs = t.chunk
	chunk.release()
	for i := range parts {
		parts[i].recs.release()
		parts[i].kept.Release()
	}
	if p.Tables != nil {
		if err == nil {
			err = p.Tables.Finish()
		}
		if err != nil {
			p.Tables.Abandon()
		}
	}
	if err != nil {
		return nil, err
	}
	t.finish()
	return res, nil
}

// enginePart is one key range [lo, hi) of a run; a nil bound is open.
// The rest is set by a helper that merges the part, final once
// compaction.RunParts hands it to drain.
type enginePart struct {
	lo, hi []byte
	want   int64            // about the bytes the part's blocks take
	recs   *recordBuf       // the part's records, in key order
	kept   *compaction.Kept // the part's blocks, when the run writes tables
	last   uint32           // SealedSize of the block the part's end sealed, 0 if none
	err    error
}

// merge is the functional pass over the part: its pairs in key order
// through the Validity Check, the kept ones encoded into blocks. With t
// set the records go to the timing pass a chunk at a time and the blocks
// to p.Tables as the merge goes; with t nil the part keeps both for its
// drain. Part 0 also hands t the lanes' first heads, which start the
// timing pass: RunParts always runs part 0 with t set. The lanes of a
// later part find their first pair by walking the index stream to (lo,
// MaxSeq) and seeking into that block; those first pairs were peeked, and
// are timed, by the part before.
//
//fcae:cycle-accounting
func (pt *enginePart) merge(inputs []*InputImage, p Params, t *timing) error {
	lanes := make([]lane, len(inputs))
	var seek []byte
	if pt.lo != nil {
		seek = keys.MakeInternal(nil, pt.lo, keys.MaxSeq, keys.KindSet)
	}
	for i, img := range inputs {
		l := &lanes[i]
		l.img, l.tableIdx, l.seek = img, -1, seek
		if err := l.advance(); err != nil {
			return err
		}
	}
	if pt.lo == nil {
		t.start(lanes)
	}
	// Where the part's records and sealed blocks go: on to the timing
	// pass and the tables as they come, or kept for the drain.
	var recs []pairRecord
	var out compaction.BlockSink
	if t != nil {
		recs = t.chunk[:0]
		if p.Tables != nil {
			out = p.Tables
		}
	} else {
		pt.recs = getRecordBuf()
		recs = pt.recs.recs
		if p.Tables != nil {
			var r compaction.Retainer
			if p.Arena != nil {
				r = p.Arena
			}
			pt.kept = compaction.GetKept(pt.want, r)
			out = pt.kept
		}
	}
	// The Validity Check module of §V-A. A part starts at a user-key
	// boundary, so a fresh policy decides as the whole stream's would.
	drop := compaction.DropPolicy{SmallestSnapshot: p.SmallestSnapshot, BottomLevel: p.BottomLevel}
	// The Data Block Encoder (§V-A); the Index Block Encoder's keys are
	// chosen at assembly, once the table's end is known.
	enc := compaction.GetBlockEncoder(p.blockOpts(), p.CollectFilterKeys)
	defer enc.Release()
	for {
		// The Key Compare module selects the least head (§V-A).
		winner := -1
		for i := range lanes {
			if lanes[i].live && (winner < 0 || keys.Compare(lanes[i].key, lanes[winner].key) < 0) {
				winner = i
			}
		}
		if winner < 0 {
			break
		}
		w := &lanes[winner]
		if pt.hi != nil && keys.CompareUser(keys.UserKey(w.key), pt.hi) >= 0 {
			break
		}
		r := pairRecord{lane: int32(winner), keyLen: uint32(len(w.key)), valueLen: uint32(len(w.value))}
		r.dropped = drop.Drop(w.key)
		if !r.dropped {
			if enc.Opens() {
				// A part's first kept pair follows the part before's
				// last across a user-key boundary.
				last := enc.Last()
				r.newUser = len(last) == 0 || keys.CompareUser(keys.UserKey(w.key), keys.UserKey(last)) != 0
			}
			if b := enc.Add(w.key, w.value); b != nil {
				r.sealed = uint32(sstable.SealedSize(len(b.Payload)))
				if out != nil {
					if err := out.Add(b); err != nil {
						return err
					}
				}
			}
		}
		if err := w.advance(); err != nil {
			return err
		}
		r.nextKeyLen, r.nextValueLen, r.nextFirst, r.nextOK = uint32(len(w.key)), uint32(len(w.value)), w.first, w.live
		recs = append(recs, r)
		if t != nil && len(recs) == recordChunk {
			t.replay(recs)
			recs = recs[:0]
		}
	}
	// The part's end seals its open block: a cut ends a block.
	var last uint32
	if b := enc.Flush(); b != nil {
		last = uint32(sstable.SealedSize(len(b.Payload)))
		if out != nil {
			if err := out.Add(b); err != nil {
				return err
			}
		}
	}
	if t == nil {
		pt.recs.recs, pt.last = recs, last
		return nil
	}
	t.replay(recs)
	t.chunk = recs[:0]
	t.partEnd(last)
	return nil
}

// drain hands a part merged beside the caller to the timing pass, its
// records and the block its end sealed, and its blocks to tables.
func (pt *enginePart) drain(t *timing, tables *compaction.Tables) error {
	if pt.err != nil {
		return pt.err
	}
	t.replay(pt.recs.recs)
	t.partEnd(pt.last)
	if pt.kept == nil {
		return nil
	}
	return pt.kept.Drain(tables)
}

// advance moves the lane to its next pair, crossing data blocks and
// tables; past the input's last pair the lane is no longer live.
func (l *lane) advance() error {
	for {
		if l.itLive {
			l.it.Next()
			if l.it.Valid() {
				l.setPair(false)
				return nil
			}
			if err := l.it.Error(); err != nil {
				return err
			}
			l.itLive = false
		}
		// Need the next data block.
		if l.blocks == 0 {
			// Next table in this input, if any.
			if l.tableIdx+1 >= len(l.img.Tables) {
				l.live = false
				return nil
			}
			l.tableIdx++
			t := l.img.Tables[l.tableIdx]
			idx, err := l.img.IndexSlice(t)
			if err != nil {
				return err
			}
			l.index = indexStream{buf: idx}
			l.blocks = t.NumBlocks
			if l.blocks == 0 {
				continue
			}
		}
		entry, err := l.index.next()
		if err != nil {
			return err
		}
		l.blocks--
		if l.seek != nil && keys.Compare(entry.IndexKey, l.seek) < 0 {
			continue // every key of the block lies below the part
		}
		raw, err := l.img.BlockSlice(entry)
		if err != nil {
			return err
		}
		contents, err := sstable.DecodeBlock(&l.decomp, raw[0], raw[1:])
		if err != nil {
			return fmt.Errorf("core: decoder lane: %w", err)
		}
		if err := l.it.Reset(contents); err != nil {
			return err
		}
		if l.seek != nil {
			l.it.SeekGE(l.seek)
		} else {
			l.it.SeekToFirst()
		}
		if !l.it.Valid() {
			if err := l.it.Error(); err != nil {
				return err
			}
			continue // empty block, or nothing in it at or past the seek
		}
		l.itLive = true
		l.setPair(l.seek == nil)
		l.seek = nil
		return nil
	}
}

// setPair captures the lane's current pair. The block iterator reuses its
// buffers across Next, so the head pair is copied into lane-owned storage
// (this is also what the hardware FIFO does: the head registers hold
// bytes, not references).
func (l *lane) setPair(first bool) {
	l.key = append(l.key[:0], l.it.Key()...)
	l.value = append(l.value[:0], l.it.Value()...)
	l.first = first
	l.live = true
}
