package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/snappy"
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
	// Cuts are user keys, strictly ascending, at which an output table
	// ends whatever its size: the table open before the first key at or
	// past a cut is closed. The host passes compaction.Cuts, the key
	// ranges the CPU lane merges apart, so both lanes write the same files.
	Cuts [][]byte
	// CollectFilterKeys returns user keys in MetaOut so the host can
	// attach bloom filters while combining the output.
	CollectFilterKeys bool
	// Arena, when non-nil, backs the run's retained output (table bounds,
	// block index keys, compressed payloads, filter keys) with the
	// channel's staging arena instead of per-item heap allocations. The
	// caller owns the arena's lifetime; output slices die at its Reset.
	Arena *Arena

	// TraceWriter, when set, receives a CSV stream of per-selection
	// pipeline timestamps (cycle numbers for FIFO-head readiness, Comparer
	// start/end, Transfer end, Encoder end) — a software waveform of the
	// Fig 5 pipeline. TraceLimit bounds the number of traced selections
	// (default 1000).
	TraceWriter io.Writer
	TraceLimit  int
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
	BytesOut     int64 // device DRAM bytes written (WOut-aligned)
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

// SpeedMBps is input bytes over kernel time, the paper's compaction-speed
// metric (§VII-B1).
//
//fcae:cycle-accounting
func (s Stats) SpeedMBps() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BytesIn) / (s.Cycles / ClockHz) / 1e6
}

// Result is the engine's output: the produced tables plus run statistics.
type Result struct {
	Outputs []*OutputTableImage
	Stats   Stats
}

// ErrTooManyInputs is returned when a job exceeds the engine's decoder
// lanes; the host must fall back to software compaction (§VI-A).
var ErrTooManyInputs = errors.New("core: job exceeds engine input lanes")

// lane is one decoder path: index stream + data block decoding for one
// sorted input.
type lane struct {
	img      *InputImage
	tableIdx int
	index    indexStream
	blocks   int // blocks remaining in current table's index
	// it is the lane's persistent block iterator, Reset onto each new
	// data block so the decode loop does no per-block parse allocation;
	// itLive marks whether it currently holds undrained entries.
	it     sstable.BlockIter
	itLive bool
	decomp []byte

	key, value []byte
	live       bool

	decClock  float64 // decoder's own timeline (runs ahead through FIFOs)
	headReady float64 // when the current head pair became available
	busy      float64 // accumulated decode service cycles

	// hist is a ring of the last FIFODepth consumption times: the decoder
	// can only decode pair k once pair k-FIFODepth has left the FIFO.
	hist     []float64
	histPos  int
	consumed int
}

// pushConsume records the time the current head left the FIFO and returns
// the earliest time the decoder may start on the pair FIFODepth ahead.
func (l *lane) pushConsume(t float64) {
	l.hist[l.histPos] = t
	l.histPos = (l.histPos + 1) % len(l.hist)
	l.consumed++
}

// fifoConstraint returns the time the FIFO slot for the next decode frees.
func (l *lane) fifoConstraint() float64 {
	if l.consumed < len(l.hist) {
		return 0
	}
	// The oldest entry in the ring is the consume time of pair k-Depth.
	return l.hist[l.histPos]
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
// exceed the configured N.
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

	lanes := make([]*lane, len(inputs))
	res := &Result{}
	// One backing array for every lane's FIFO occupancy history: the
	// per-lane windows are fixed-size slices of it, so lane setup does
	// one allocation instead of one per input run.
	histBacking := make([]float64, len(inputs)*FIFODepth)
	for i, img := range inputs {
		l := &lane{img: img, tableIdx: -1, hist: histBacking[i*FIFODepth : (i+1)*FIFODepth]}
		// Initial index fetch latency before the first pair can decode.
		l.decClock = DRAMLatencyCycles
		if err := e.advance(l, -1); err != nil {
			return nil, err
		}
		lanes[i] = l
		res.Stats.BytesIn += img.Bytes()
	}

	var cmpClock, xferClock, encClock float64
	// The Validity Check module of §V-A.
	drop := compaction.DropPolicy{SmallestSnapshot: p.SmallestSnapshot, BottomLevel: p.BottomLevel}
	out := newOutputBuilder(p)

	traceLimit := p.TraceLimit
	if traceLimit <= 0 {
		traceLimit = 1000
	}
	if p.TraceWriter != nil {
		fmt.Fprintln(p.TraceWriter, "pair,lane,keyLen,valueLen,ready,cmpStart,cmpEnd,xferEnd,encEnd,dropped")
	}

	for {
		// The Key Compare module waits for every live FIFO head (§V-A).
		ready := 0.0
		winner := -1
		for i, l := range lanes {
			if !l.live {
				continue
			}
			if l.headReady > ready {
				ready = l.headReady
			}
			if winner < 0 || keys.Compare(l.key, lanes[winner].key) < 0 {
				winner = i
			}
		}
		if winner < 0 {
			break
		}
		w := lanes[winner]
		res.Stats.PairsIn++

		_, cmpP, xferP, encP := e.cfg.stagePeriods(len(w.key), len(w.value))
		start := cmpClock
		if ready > start {
			start = ready
		}
		cmpClock = start + cmpP
		res.Stats.ComparerBusy += cmpP

		dropped := drop.Drop(w.key)
		if dropped {
			res.Stats.PairsDropped++
		} else {
			// Key-Value Transfer then Encoder (§V-C: the Drop flag selects
			// the key stream and value stream at the same time).
			if t := cmpClock; t > xferClock {
				xferClock = t
			}
			xferClock += xferP
			res.Stats.TransferBusy += xferP
			if t := xferClock; t > encClock {
				encClock = t
			}
			encClock += encP
			res.Stats.EncoderBusy += encP
			flushCycles, err := out.add(w.key, w.value)
			if err != nil {
				return nil, err
			}
			encClock += flushCycles
			res.Stats.PairsOut++
		}
		if p.TraceWriter != nil && res.Stats.PairsIn <= traceLimit {
			//fcae:alloc-ok trace is off in production (TraceWriter nil) and bounded by traceLimit rows when on
			fmt.Fprintf(p.TraceWriter, "%d,%d,%d,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%v\n",
				res.Stats.PairsIn, winner, len(w.key), len(w.value),
				ready, start, cmpClock, xferClock, encClock, dropped)
		}
		if err := e.advance(w, start); err != nil {
			return nil, err
		}
	}
	finalFlush, err := out.finish()
	if err != nil {
		return nil, err
	}
	encClock += finalFlush

	res.Outputs = out.tables
	for _, t := range res.Outputs {
		res.Stats.BytesOut += t.DataBytes(WOut) + t.IndexBytes()
	}
	res.Stats.Cycles = cmpClock
	if encClock > res.Stats.Cycles {
		res.Stats.Cycles = encClock
	}
	for _, l := range lanes {
		if l.busy > res.Stats.DecoderBusy {
			res.Stats.DecoderBusy = l.busy
		}
	}
	return res, nil
}

// advance decodes the lane's next pair, charging decoder cycles and block
// switch latencies. consumeTime is when the previous head left the FIFO
// (negative during the initial fill).
//
//fcae:cycle-accounting
func (e *Engine) advance(l *lane, consumeTime float64) error {
	if consumeTime >= 0 {
		l.pushConsume(consumeTime)
	}
	for {
		if l.itLive {
			l.it.Next()
			if l.it.Valid() {
				l.setPair(e.cfg)
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
		l.it.SeekToFirst()
		if !l.it.Valid() {
			continue // empty block: skip
		}
		l.itLive = true
		// Block switch: index fetch (hidden or serialized per §V-B) plus
		// the DRAM burst for the block itself.
		l.decClock += e.cfg.blockSwitchCycles()
		l.setPair(e.cfg)
		return nil
	}
}

// setPair captures the lane's current pair and charges its decode service,
// honoring the FIFO backpressure constraint. The block iterator reuses
// its buffers across Next, so the head pair is copied into lane-owned
// storage (this is also what the hardware FIFO does: the head registers
// hold bytes, not references).
//
//fcae:cycle-accounting
func (l *lane) setPair(cfg Config) {
	l.key = append(l.key[:0], l.it.Key()...)
	l.value = append(l.value[:0], l.it.Value()...)
	dec, _, _, _ := cfg.stagePeriods(len(l.key), len(l.value))
	if c := l.fifoConstraint(); c > l.decClock {
		l.decClock = c
	}
	l.decClock += dec
	l.busy += dec
	l.headReady = l.decClock
	l.live = true
}

// outputBuilder is the Encoder side: Data Block Encoder + Index Block
// Encoder + output buffer (§V-A). Where a table ends and what key a block
// is indexed under are sstable's decisions (TableFull, IndexKey), the ones
// sstable.Writer makes: the host assembles these images into the files the
// CPU lane would have written.
type outputBuilder struct {
	p            Params
	bw           *sstable.BlockWriter
	compression  sstable.Compression
	enc          snappy.Encoder // this lane's match-finder state, kept across blocks
	cbuf         []byte
	fbuf         []byte // finished-block scratch, reused across flushes
	ibuf         []byte // index-key scratch
	tables       []*OutputTableImage
	cur          *OutputTableImage
	sealed       int64 // current table's sealed data-block bytes
	last         []byte
	blockEntries int
	unindexed    bool     // cur's last block awaits its index key; last is its last key
	wantClose    bool     // table is full; close at the next user-key boundary
	cuts         [][]byte // the cuts not yet reached
}

func newOutputBuilder(p Params) *outputBuilder {
	o := &outputBuilder{p: p, bw: sstable.NewBlockWriter(p.RestartInterval), cuts: p.Cuts}
	if p.Compress {
		o.compression = sstable.SnappyCompression
	}
	return o
}

// retain copies b into the arena's retained-output region when one is
// attached and has room; otherwise it heap-allocates the copy (no arena,
// or the overflow path once the region fills).
//
//fcae:cycle-accounting
func (o *outputBuilder) retain(b []byte) []byte {
	if dst, ok := o.p.Arena.takeOut(len(b)); ok {
		// Arena-backed: takeOut pre-carved exactly len(b) capacity, so this append cannot grow.
		return append(dst, b...)
	}
	//fcae:alloc-ok retained output must outlive the merge loop; the arena is absent or its output region is full
	return append([]byte(nil), b...)
}

// add encodes one pair, returning any extra encoder cycles spent flushing
// a finished block or table.
//
//fcae:cycle-accounting
func (o *outputBuilder) add(ikey, value []byte) (float64, error) {
	var cycles float64
	// A full table closes only at a user-key boundary, preserving the
	// one-file-per-level lookup invariant; a cut is one.
	cut := false
	for len(o.cuts) > 0 && keys.CompareUser(keys.UserKey(ikey), o.cuts[0]) >= 0 {
		o.cuts, cut = o.cuts[1:], true
	}
	if o.cur != nil && (cut || o.wantClose && keys.CompareUser(keys.UserKey(ikey), keys.UserKey(o.last)) != 0) {
		cycles += o.flushBlock()
		o.closeTable()
		cycles += blockFlushFixed // index block write-back
		o.wantClose = false
	}
	if o.cur == nil {
		// One table image per output table, not per pair; its bound bytes go through retain.
		o.cur = &OutputTableImage{Smallest: o.retain(ikey)}
		o.sealed = 0
	}
	o.indexBlock(ikey)
	o.bw.Add(ikey, value)
	o.blockEntries++
	o.last = append(o.last[:0], ikey...)
	if o.p.CollectFilterKeys {
		// Filter keys are retained output handed to the host assembler; key bytes go through retain.
		o.cur.FilterKeys = append(o.cur.FilterKeys, o.retain(keys.UserKey(ikey)))
	}
	o.cur.Entries++
	if o.bw.EstimatedSize() >= o.p.BlockSize {
		cycles += o.flushBlock()
		// Table threshold check (§V-A: when the accumulated size of data
		// blocks exceeds the threshold, the SSTable is completed).
		o.wantClose = sstable.TableFull(o.sealed, o.p.TableBytes)
	}
	return cycles, nil
}

// flushBlock finalizes the current data block into the output image.
func (o *outputBuilder) flushBlock() float64 {
	if o.bw.Empty() {
		return 0
	}
	// FinishInto reuses fbuf as the finished-block scratch, so contents
	// is NOT safe to retain directly: whichever encoding wins, the kept
	// payload goes through retain (arena region or heap copy).
	contents := o.bw.FinishInto(o.fbuf[:0])
	o.fbuf = contents
	ctype, payload := sstable.EncodeBlock(&o.enc, &o.cbuf, contents, o.compression)
	o.cur.Blocks = append(o.cur.Blocks, OutputBlock{
		CType:   ctype,
		Payload: o.retain(payload),
		Entries: o.blockEntries,
	})
	o.unindexed = true
	o.sealed += sstable.SealedSize(len(payload))
	o.blockEntries = 0
	// The Stream Upsizer drains the block at WOut bytes/cycle while the
	// encoder goes on; only the burst setup and index append show.
	return blockFlushFixed
}

// indexBlock gives the block flushed last its index key, once what follows
// it is known: the next kept pair's key, or nil when the table closes. The
// Index Block Encoder holds one key per block (Fig 8), the shortest that
// separates it from the next.
func (o *outputBuilder) indexBlock(upcoming []byte) {
	if !o.unindexed {
		return
	}
	o.ibuf = sstable.IndexKey(o.ibuf[:0], o.last, upcoming)
	o.cur.Blocks[len(o.cur.Blocks)-1].IndexKey = o.retain(o.ibuf)
	o.unindexed = false
}

func (o *outputBuilder) closeTable() {
	if o.cur == nil {
		return
	}
	o.indexBlock(nil)
	o.cur.Largest = o.retain(o.last)
	o.tables = append(o.tables, o.cur)
	o.cur = nil
}

// finish flushes trailing state at end of stream.
//
//fcae:cycle-accounting
func (o *outputBuilder) finish() (float64, error) {
	var cycles float64
	if !o.bw.Empty() {
		cycles += o.flushBlock()
	}
	if o.cur != nil && len(o.cur.Blocks) > 0 {
		o.closeTable()
		cycles += blockFlushFixed
	}
	o.cur = nil
	return cycles, nil
}
