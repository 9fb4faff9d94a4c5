package sstable

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fcae/internal/snappy"
)

// This file is the software analogue of the paper's encoder pipeline
// stage: completed data blocks leave the merge loop as raw contents and
// are compressed, checksummed and written by a small worker pool while
// the merge keeps running. The contract is strict byte-identity with the
// sequential Writer — same payload bytes, same file layout, same index —
// which pins three design points:
//
//   - ordering: blocks reach the file in submission order through a FIFO
//     hand-off to a single sequencer goroutine, which alone touches the
//     file and the writer's offset/handle state;
//   - rotation parity: the producer sizes tables from [SizeBounds]
//     bounds, falling back to a [SizeExact] barrier only when the
//     rotation threshold lands inside the bounds, so the producer makes
//     exactly the decisions the sequential path would;
//   - tail ordering: a table's filter/metaindex/index/footer are written
//     by the sequencer via the same finishTail the sequential Finish
//     uses, queued behind the table's last data block.

// EncodeStats snapshots the pipeline's stall and occupancy counters.
type EncodeStats struct {
	// Blocks counts data blocks pushed through the encode stage.
	Blocks int64
	// EncodeStalls counts blocks the sequencer had to wait on because no
	// encoder had finished them yet (encode stage is the bottleneck);
	// EncodeStallNanos is the summed wait.
	EncodeStalls     int64
	EncodeStallNanos int64
	// SubmitStalls counts producer-side waits for a free block buffer or
	// an order-queue slot (write/encode stages are the bottleneck);
	// SubmitStallNanos is the summed wait.
	SubmitStalls     int64
	SubmitStallNanos int64
	// SizeSyncs counts rotation decisions that had to drain in-flight
	// encodes because MaxOutputBytes fell inside the size bounds.
	SizeSyncs int64
}

// encTask carries one data block through encode and write. Tasks are
// pooled: the raw/cbuf scratch and the ready signal are reused across
// blocks (ready is a one-shot buffered token per trip, never closed).
type encTask struct {
	w       *Writer
	raw     []byte
	cbuf    []byte
	payload []byte
	trailer [BlockTrailerSize]byte
	rec     *blockRec
	ready   chan struct{}
}

// blockRec is the producer's size-accounting record for one in-flight
// block: enc holds payload+trailer bytes once the encoder resolves it
// (0 while in flight). The producer owns the record; the encoder's only
// touch is the single atomic store.
type blockRec struct {
	rawLen int
	enc    atomic.Int64
}

// seqItem is one FIFO hand-off to the sequencer: a data block, a table
// finish, or a size-sync barrier.
type seqItem struct {
	blk     *encTask
	fin     *finishReq
	barrier bool
}

// finishReq asks the sequencer to write a table's tail and close its
// file once every prior block of that table has been written.
type finishReq struct {
	w     *Writer
	reply chan AsyncFinish
}

// AsyncFinish resolves one FinishAsync call.
type AsyncFinish struct {
	Stats WriterStats
	Err   error
}

// EncodePipeline runs K encoder workers plus one sequencer over pooled
// block buffers. One pipeline serves every output table of a compaction
// in turn; Close flushes and joins the workers.
type EncodePipeline struct {
	compression Compression

	encodeq     chan *encTask
	orderq      chan seqItem
	free        chan *encTask
	barrierDone chan struct{}

	wg        sync.WaitGroup
	closeOnce sync.Once

	// recPool is the producer-side blockRec free list; only the producing
	// goroutine touches it.
	recPool []*blockRec

	blocks           atomic.Int64
	encodeStalls     atomic.Int64
	encodeStallNanos atomic.Int64
	submitStalls     atomic.Int64
	submitStallNanos atomic.Int64
	sizeSyncs        atomic.Int64

	failed   atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

// NewEncodePipeline starts a pipeline with the given queue depth and
// encoder worker count (both clamped to >= 1) for tables compressed per
// opts. The caller must Close it.
func NewEncodePipeline(opts Options, depth, encoders int) *EncodePipeline {
	if depth < 1 {
		depth = 1
	}
	if encoders < 1 {
		encoders = 1
	}
	opts = opts.WithDefaults()
	ntasks := depth + encoders + 2
	p := &EncodePipeline{
		compression: opts.Compression,
		encodeq:     make(chan *encTask, depth),
		orderq:      make(chan seqItem, depth+8),
		free:        make(chan *encTask, ntasks),
		barrierDone: make(chan struct{}, 1),
	}
	for i := 0; i < ntasks; i++ {
		p.free <- &encTask{ready: make(chan struct{}, 1)}
	}
	for i := 0; i < encoders; i++ {
		p.wg.Add(1)
		go p.encoderLoop()
	}
	p.wg.Add(1)
	go p.sequencerLoop()
	return p
}

// Close flushes every queued block and table tail, then joins the
// encoder and sequencer goroutines. Idempotent.
//
// NewEncodePipeline makes the two stage queues, but shutdown is Close's
// one job: closing them here is the designed hand-off, declared so
// chanflow holds every other close site to the owner rule.
//
//fcae:chan-owner sstable.EncodePipeline.encodeq
//fcae:chan-owner sstable.EncodePipeline.orderq
func (p *EncodePipeline) Close() {
	p.closeOnce.Do(func() {
		close(p.encodeq)
		close(p.orderq)
		p.wg.Wait()
	})
}

// Err returns the first write error observed by the sequencer, letting
// the producer abort a doomed merge early instead of discovering the
// failure at finish time.
func (p *EncodePipeline) Err() error {
	if !p.failed.Load() {
		return nil
	}
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

func (p *EncodePipeline) noteErr(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
	p.failed.Store(true)
}

// Stats snapshots the stall/occupancy counters.
func (p *EncodePipeline) Stats() EncodeStats {
	return EncodeStats{
		Blocks:           p.blocks.Load(),
		EncodeStalls:     p.encodeStalls.Load(),
		EncodeStallNanos: p.encodeStallNanos.Load(),
		SubmitStalls:     p.submitStalls.Load(),
		SubmitStallNanos: p.submitStallNanos.Load(),
		SizeSyncs:        p.sizeSyncs.Load(),
	}
}

// encoderLoop is one encode-stage worker: encode and seal the block
// exactly as writeBlock does, and resolve its encoded size before
// signalling the sequencer.
//
//fcae:cycle-accounting
func (p *EncodePipeline) encoderLoop() {
	defer p.wg.Done()
	enc := new(snappy.Encoder) // this worker's match-finder state
	for t := range p.encodeq {
		var ctype byte
		ctype, t.payload = EncodeBlock(enc, &t.cbuf, t.raw, p.compression)
		sealBlock(&t.trailer, ctype, t.payload)
		if t.rec != nil {
			t.rec.enc.Store(int64(len(t.payload)) + BlockTrailerSize)
		}
		t.ready <- struct{}{}
	}
}

// sequencerLoop is the write stage: it drains the FIFO, writing blocks in
// submission order and table tails behind their last block, so the file
// bytes match the sequential writer exactly.
func (p *EncodePipeline) sequencerLoop() {
	defer p.wg.Done()
	for item := range p.orderq {
		switch {
		case item.blk != nil:
			p.writeSequenced(item.blk)
		case item.fin != nil:
			fr := item.fin
			stats, err := fr.w.finishOnSequencer()
			if cerr := fr.w.async.f.Close(); err == nil && cerr != nil {
				err = cerr
			}
			if err != nil {
				p.noteErr(err)
			}
			fr.reply <- AsyncFinish{Stats: stats, Err: err}
		case item.barrier:
			// Every block submitted before the barrier has been written —
			// and therefore resolved by its encoder — by the time the
			// token is handed back.
			p.barrierDone <- struct{}{}
		}
	}
}

// writeSequenced writes one encoded block and records its handle.
func (p *EncodePipeline) writeSequenced(t *encTask) {
	select {
	case <-t.ready:
	default:
		p.encodeStalls.Add(1)
		start := time.Now()
		<-t.ready
		p.encodeStallNanos.Add(time.Since(start).Nanoseconds())
	}
	tw := t.w
	if tw.async.werr == nil {
		if h, err := tw.writeSealed(t.payload, &t.trailer); err != nil {
			tw.async.werr = err
			p.noteErr(err)
		} else {
			tw.handles = append(tw.handles, h)
		}
	}
	t.w = nil
	t.payload = nil
	t.rec = nil
	p.free <- t
}

// newRec pools producer-side size records.
func (p *EncodePipeline) newRec(rawLen int) *blockRec {
	if n := len(p.recPool); n > 0 {
		r := p.recPool[n-1]
		p.recPool = p.recPool[:n-1]
		r.rawLen = rawLen
		r.enc.Store(0)
		return r
	}
	return &blockRec{rawLen: rawLen}
}

// asyncWriter is a Writer's attachment to an EncodePipeline.
type asyncWriter struct {
	pipe *EncodePipeline
	f    io.WriteCloser

	// Staging decouples block completion (inside Add, whose sync callers
	// may hold locks) from the blocking pipeline hand-off (PumpAsync, on
	// the producer's own stack): the finished builder is parked here and
	// a spare swapped in, so Add itself never touches a channel.
	stagedBuilder  *blockBuilder
	stagedContents []byte
	spare          *blockBuilder

	// Producer-side size accounting: base holds the exact bytes of every
	// resolved block; recs the still-in-flight ones.
	base int64
	recs []*blockRec

	// werr is this table's first write error; written and read only on
	// the sequencer goroutine.
	werr error
}

// NewWriterAsync returns a Writer whose data blocks are encoded and
// written by pipe. f receives the table bytes; the pipeline's sequencer
// closes it when the FinishAsync hand-off resolves (on abort — no
// FinishAsync — the caller closes f itself, after Close has joined the
// sequencer). Producer-side methods (Add, SizeBounds, SizeExact,
// FinishAsync) must all be called from one goroutine.
func NewWriterAsync(f io.WriteCloser, opts Options, pipe *EncodePipeline) *Writer {
	w := NewWriter(f, opts)
	w.async = &asyncWriter{pipe: pipe, f: f}
	return w
}

// stageAsync parks the completed block's builder and swaps in a fresh
// one so the writer can keep accepting entries. Channel-free by design:
// Add must never block (its sync callers may hold locks); the hand-off
// happens in PumpAsync.
func (w *Writer) stageAsync(contents []byte) {
	a := w.async
	if a.stagedBuilder != nil {
		w.err = fmt.Errorf("sstable: internal: async block staged twice without a pump")
		return
	}
	if a.spare == nil {
		// Two builders alternate for the writer's lifetime; this is the one-time second.
		a.spare = newBlockBuilder(w.opts.RestartInterval)
	}
	a.stagedBuilder = w.data
	a.stagedContents = contents
	w.data = a.spare
	a.spare = nil
}

// PumpAsync hands the staged data block, if any, to the encode pipeline.
// The producer calls it between Add calls; this is the only place the
// writer blocks on pipeline backpressure. Small enough to inline: it is
// called once per entry and acts once per block.
func (w *Writer) PumpAsync() {
	if a := w.async; a != nil && a.stagedBuilder != nil {
		w.submitStaged()
	}
}

// submitStaged copies the staged block into a pooled task, hands it to
// the encode stage and, in the same order, to the sequencer, and takes
// the staged builder back as the spare.
func (w *Writer) submitStaged() {
	a := w.async
	p := a.pipe
	contents := a.stagedContents
	var t *encTask
	select {
	case t = <-p.free:
	default:
		p.submitStalls.Add(1)
		start := time.Now()
		t = <-p.free
		p.submitStallNanos.Add(time.Since(start).Nanoseconds())
	}
	t.w = w
	t.raw = append(t.raw[:0], contents...)
	if p.compression == SnappyCompression {
		// Snappy payload size is unknown until encoded: track a record so
		// SizeBounds can bracket it and SizeExact resolve it.
		t.rec = p.newRec(len(contents))
		a.recs = append(a.recs, t.rec)
	} else {
		// Uncompressed payloads have a known size: fold it immediately.
		a.base += int64(len(contents)) + BlockTrailerSize
	}
	p.blocks.Add(1)
	p.encodeq <- t
	select {
	case p.orderq <- seqItem{blk: t}:
	default:
		p.submitStalls.Add(1)
		start := time.Now()
		p.orderq <- seqItem{blk: t}
		p.submitStallNanos.Add(time.Since(start).Nanoseconds())
	}
	a.stagedBuilder.reset()
	a.spare = a.stagedBuilder
	a.stagedBuilder = nil
	a.stagedContents = nil
}

// fold moves resolved in-flight blocks into the exact base, recycling
// their records.
func (a *asyncWriter) fold() {
	recs := a.recs
	kept := recs[:0]
	for _, r := range recs {
		if e := r.enc.Load(); e != 0 {
			a.base += e
			a.pipe.recPool = append(a.pipe.recPool, r)
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(recs); i++ {
		recs[i] = nil
	}
	a.recs = kept
}

// SizeBounds returns lower and upper bounds on what EstimatedSize would
// report at this point in sequential mode. The bounds collapse to the
// exact value once every in-flight block's encode has resolved (always,
// under NoCompression). A rotation threshold outside [lo, hi] can be
// decided without waiting; inside, use SizeExact.
func (w *Writer) SizeBounds() (lo, hi int64) {
	a := w.async
	if a == nil {
		sz := w.EstimatedSize()
		return sz, sz
	}
	a.fold()
	lo, hi = a.base, a.base
	for _, r := range a.recs {
		// The encoder keeps compression only when it saves space, so the
		// payload never exceeds the raw contents; the floor is snappy's
		// densest possible encoding.
		min := snappy.MinEncodedLen(r.rawLen)
		if min > r.rawLen {
			min = r.rawLen
		}
		lo += int64(min) + BlockTrailerSize
		hi += int64(r.rawLen) + BlockTrailerSize
	}
	if a.stagedBuilder != nil {
		n := len(a.stagedContents)
		min := n
		if w.opts.Compression == SnappyCompression {
			if m := snappy.MinEncodedLen(n); m < min {
				min = m
			}
		}
		lo += int64(min) + BlockTrailerSize
		hi += int64(n) + BlockTrailerSize
	}
	est := int64(w.data.estimatedSize())
	return lo + est, hi + est
}

// SizeExact returns exactly what EstimatedSize would report in
// sequential mode, draining in-flight encodes through a sequencer
// barrier when needed.
func (w *Writer) SizeExact() int64 {
	a := w.async
	if a == nil {
		return w.EstimatedSize()
	}
	w.PumpAsync()
	a.fold()
	if len(a.recs) > 0 {
		p := a.pipe
		p.sizeSyncs.Add(1)
		p.orderq <- seqItem{barrier: true}
		<-p.barrierDone
		a.fold()
	}
	return a.base + int64(w.data.estimatedSize())
}

// FinishAsync completes the table through the pipeline: the producer-side
// finishing (final block, final separator) happens inline, then the tail
// write and file close are queued behind the table's last data block. The
// returned channel resolves exactly once; the producer may immediately
// move on to its next output table.
func (w *Writer) FinishAsync() <-chan AsyncFinish {
	reply := make(chan AsyncFinish, 1)
	if w.async == nil {
		reply <- AsyncFinish{Stats: w.stats, Err: fmt.Errorf("sstable: FinishAsync on a synchronous writer (use Finish)")}
		return reply
	}
	if w.finished {
		reply <- AsyncFinish{Stats: w.stats, Err: fmt.Errorf("sstable: Finish called twice")}
		return reply
	}
	w.finished = true
	w.finishDataBlock()
	w.flushPendingIndex(nil)
	w.PumpAsync()
	w.async.pipe.orderq <- seqItem{fin: &finishReq{w: w, reply: reply}}
	return reply
}

// finishOnSequencer runs the tail write on the sequencer goroutine. The
// finish hand-off orders it after the producer's last touch of the
// writer, so reading the producer-side fields here is race-free.
func (w *Writer) finishOnSequencer() (WriterStats, error) {
	if w.err != nil {
		return w.stats, w.err
	}
	stats, err := w.finishTail()
	if err != nil && w.async.werr == nil {
		w.async.werr = err
	}
	return stats, err
}
