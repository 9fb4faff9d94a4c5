// Package compaction defines the merge job abstraction shared by the
// software compactor and the FCAE engine, plus the CPU reference executor.
// A Job carries raw table inputs grouped into sorted runs (paper §IV step
// 2: level-0 files each form a run, deeper levels concatenate into one),
// and an Executor merges them into fresh output tables.
package compaction

import (
	"errors"
	"io"
	"time"

	"fcae/internal/iter"
	"fcae/internal/keys"
	"fcae/internal/obs"
	"fcae/internal/sstable"
)

// ErrArenaExhausted is returned (wrapped) by device executors whose
// per-channel staging arena cannot hold the job's input or output images.
// The dispatcher treats it as a deterministic routing condition — the job
// reruns on the CPU lane without burning device retries — rather than a
// fault.
var ErrArenaExhausted = errors.New("compaction: job exceeds device staging arena")

// Table is one input SSTable's raw bytes.
type Table struct {
	Num  uint64
	Size int64
	Data io.ReaderAt
}

// Job describes one compaction to execute.
type Job struct {
	// Runs are the sorted input streams; tables within a run are disjoint
	// and ordered by key.
	Runs [][]Table
	// SmallestSnapshot is the oldest live snapshot sequence; entries
	// shadowed at or below it are dropped.
	SmallestSnapshot uint64
	// BottomLevel allows tombstones themselves to be dropped.
	BottomLevel bool
	// TableOpts configure the output tables.
	TableOpts sstable.Options
	// MaxOutputBytes caps each output table (paper: ~2 MB per SSTable).
	MaxOutputBytes uint64
	// Trace, when non-nil, collects phase spans as the executor runs
	// (flush_table per output; the FCAE executor adds build_images).
	Trace *obs.Trace
}

// NumRuns returns the number of sorted input streams (the paper's N).
func (j *Job) NumRuns() int { return len(j.Runs) }

// InputBytes returns the total input size.
func (j *Job) InputBytes() int64 {
	var n int64
	for _, run := range j.Runs {
		for _, t := range run {
			n += t.Size
		}
	}
	return n
}

// OutputTable describes one produced table.
type OutputTable struct {
	Num      uint64
	Size     int64
	Entries  int
	Smallest []byte
	Largest  []byte
}

// Stats summarizes an executed job.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	PairsIn      int
	PairsOut     int
	PairsDropped int
	// KernelTime is the modeled merge time (device cycles for the FCAE
	// executor, CPU model for the software executor); wall-clock callers
	// measure real durations themselves.
	KernelTime time.Duration
	// TransferTime is the modeled PCIe transfer time (FCAE only).
	TransferTime time.Duration
	// Pipeline carries the pipelined CPU path's per-stage stall and
	// occupancy counters; zero when the job ran sequentially.
	Pipeline PipelineStats
}

// PipelineStats counts the stalls of the pipelined CPU data path's encode
// stage, the software analogues of the paper's pipeline-occupancy
// counters: encode stalls mean the encoder workers are the bottleneck,
// submit stalls the writer behind them.
type PipelineStats struct {
	// Blocks is the number of output data blocks pushed through the
	// encode stage.
	Blocks int64
	// PrefetchStallNanos is always 0: the read-ahead stage it timed was
	// deleted in PR 24. The field stays because the frozen benchmark
	// ledger compiles against it; the [benchmark] PR that unpins the lane
	// (ROADMAP item 4) removes it.
	PrefetchStallNanos int64
	// EncodeStalls counts writer-side waits for an encoder to finish a
	// block; EncodeStallNanos is the summed wait.
	EncodeStalls     int64
	EncodeStallNanos int64
	// SubmitStalls counts merge-side waits for a free output-block slot;
	// SubmitStallNanos is the summed wait.
	SubmitStalls     int64
	SubmitStallNanos int64
	// SizeSyncs counts table-rotation decisions that had to drain
	// in-flight encodes because the size bounds straddled the threshold.
	SizeSyncs int64
}

// Add accumulates o into s (for aggregating job stats into DB totals).
func (s *PipelineStats) Add(o PipelineStats) {
	s.Blocks += o.Blocks
	s.EncodeStalls += o.EncodeStalls
	s.EncodeStallNanos += o.EncodeStallNanos
	s.SubmitStalls += o.SubmitStalls
	s.SubmitStallNanos += o.SubmitStallNanos
	s.SizeSyncs += o.SizeSyncs
}

// Result is the outcome of a compaction.
type Result struct {
	Outputs []OutputTable
	Stats   Stats
}

// Env supplies output file creation to executors.
type Env interface {
	// NewOutput allocates a file number and an output writer for one table.
	NewOutput() (num uint64, w io.WriteCloser, err error)
}

// Executor merges a Job's runs into output tables.
type Executor interface {
	// Name identifies the executor in stats ("cpu" or "fcae").
	Name() string
	// MaxRuns returns the largest NumRuns the executor accepts, or 0 for
	// unlimited. Jobs exceeding it must go to a fallback (paper Fig. 6:
	// "#SSTable in L0 > N-1" routes to SW compaction).
	MaxRuns() int
	// Compact executes the job.
	Compact(job *Job, env Env) (*Result, error)
}

// DropPolicy is the Validity Check (paper §V-A): LevelDB's shadowing rules
// applied to a merge's entries as they arrive in internal-key order (user
// key ascending, seq descending). Every executor decides with this one.
type DropPolicy struct {
	// SmallestSnapshot is the oldest live snapshot sequence.
	SmallestSnapshot uint64
	// BottomLevel allows tombstones themselves to be dropped.
	BottomLevel bool

	curUser    []byte
	hasCur     bool
	hasPrev    bool   // a previous entry for curUser has been seen
	lastSeqFor uint64 // sequence of the previous entry for curUser
}

// Drop reports whether the entry (ikey) is garbage.
func (d *DropPolicy) Drop(ikey []byte) bool {
	user := keys.UserKey(ikey)
	seq, kind := keys.DecodeTrailer(ikey)
	if !d.hasCur || keys.CompareUser(user, d.curUser) != 0 {
		d.curUser = append(d.curUser[:0], user...)
		d.hasCur = true
		d.hasPrev = false
	}
	dropped := false
	switch {
	case d.hasPrev && d.lastSeqFor <= d.SmallestSnapshot:
		// A newer entry for this user key is already visible to the
		// oldest snapshot: this one is shadowed.
		dropped = true
	case kind == keys.KindDelete && seq <= d.SmallestSnapshot && d.BottomLevel:
		// The tombstone itself is obsolete once nothing deeper exists.
		dropped = true
	}
	d.hasPrev = true
	d.lastSeqFor = seq
	return dropped
}

// CPU is the software reference executor: a heap merge over run iterators
// feeding an sstable writer, the paper's "CPU baseline" and the fallback
// for jobs exceeding the engine's input limit. With Pipeline.Depth > 0
// the finished output blocks are encoded and written by a worker pool
// behind the merge (see pipelined.go) with byte-identical outputs; the
// zero value writes them inline.
type CPU struct {
	Pipeline PipelineConfig
}

// Name implements Executor.
func (CPU) Name() string { return "cpu" }

// MaxRuns implements Executor: the software path takes any fan-in.
func (CPU) MaxRuns() int { return 0 }

// Compact implements Executor. This is the one CPU merge loop: drop what
// the Validity Check rejects, rotate the output table only at a user-key
// boundary, count pairs. Where a table's blocks are encoded is the
// outputs' business.
func (c CPU) Compact(job *Job, env Env) (*Result, error) {
	its := make([]iter.Iterator, 0, len(job.Runs))
	for _, run := range job.Runs {
		it, err := newRunIter(run, job.TableOpts)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	merged := iter.NewMerging(its...)
	merged.SeekToFirst()

	res := &Result{}
	res.Stats.BytesRead = job.InputBytes()
	drop := DropPolicy{SmallestSnapshot: job.SmallestSnapshot, BottomLevel: job.BottomLevel}
	out := newOutputs(job, env, res, c.Pipeline)
	defer out.close()

	var lastUser []byte
	for ; merged.Valid(); merged.Next() {
		if err := out.err(); err != nil {
			return nil, err
		}
		res.Stats.PairsIn++
		ikey := merged.Key()
		if drop.Drop(ikey) {
			res.Stats.PairsDropped++
			continue
		}
		// Close a full output only at a user-key boundary so that no user
		// key ever spans two tables in one level (that would break the
		// one-file-per-level lookup invariant). The size test is the cheap
		// one and goes first.
		if out.full() && keys.CompareUser(keys.UserKey(ikey), lastUser) != 0 {
			if err := out.finish(); err != nil {
				return nil, err
			}
		}
		if err := out.add(ikey, merged.Value()); err != nil {
			return nil, err
		}
		lastUser = append(lastUser[:0], keys.UserKey(ikey)...)
		res.Stats.PairsOut++
	}
	if err := merged.Error(); err != nil {
		return nil, err
	}
	if err := out.finish(); err != nil {
		return nil, err
	}
	if err := out.drain(); err != nil {
		return nil, err
	}
	return res, nil
}

// NewOutputTable describes a finished table from its writer's stats.
func NewOutputTable(num uint64, s sstable.WriterStats) OutputTable {
	return OutputTable{
		Num:      num,
		Size:     s.FileSize,
		Entries:  s.Entries,
		Smallest: s.Smallest,
		Largest:  s.Largest,
	}
}

// outputs is where the merge loop's entries go: one output table at a
// time, opened on the first entry it receives. Without a pipe a table's
// blocks are encoded and written inside add and its tail inside finish;
// with one (pipelined.go) both happen on the pipe's goroutines, finish
// only queues the tail, and drain collects the results.
type outputs struct {
	job *Job
	env Env
	res *Result

	// The open table; w is nil between tables.
	num uint64
	f   io.WriteCloser
	w   *sstable.Writer

	pipe    *sstable.EncodePipeline
	pending []pendingOutput
}

func newOutputs(job *Job, env Env, res *Result, cfg PipelineConfig) *outputs {
	o := &outputs{job: job, env: env, res: res}
	if cfg.Depth > 0 {
		cfg = cfg.withDefaults()
		o.pipe = sstable.NewEncodePipeline(job.TableOpts, cfg.Depth, cfg.Encoders)
	}
	return o
}

// full reports whether the open table has reached the job's size cap,
// exactly as Writer.EstimatedSize would say of an inline writer. Behind a
// pipe the size of a block still being encoded is known only in bounds:
// the merge waits for the encoders (SizeExact) only when the cap falls
// between them, so both lanes rotate at the same entry.
func (o *outputs) full() bool {
	if o.w == nil {
		return false
	}
	lo, hi := o.w.SizeBounds()
	if uint64(hi) < o.job.MaxOutputBytes {
		return false
	}
	return uint64(lo) >= o.job.MaxOutputBytes || uint64(o.w.SizeExact()) >= o.job.MaxOutputBytes
}

// add appends an entry to the open table, opening one first if needed.
func (o *outputs) add(ikey, value []byte) error {
	if o.w == nil {
		num, f, err := o.env.NewOutput()
		if err != nil {
			return err
		}
		o.num, o.f = num, f
		if o.pipe != nil {
			o.w = sstable.NewWriterAsync(f, o.job.TableOpts, o.pipe)
		} else {
			o.w = sstable.NewWriter(f, o.job.TableOpts)
		}
	}
	if err := o.w.Add(ikey, value); err != nil {
		return err
	}
	// Hand any block the Add completed to the encoders (a no-op inline).
	// The hand-off lives here, not inside Add, so lock-holding users of
	// the writer never share a code path with channel waits.
	o.w.PumpAsync()
	return nil
}

// finish completes the open table, if there is one.
func (o *outputs) finish() error {
	if o.w == nil {
		return nil
	}
	w, f := o.w, o.f
	o.w, o.f = nil, nil
	if o.pipe != nil {
		o.pending = append(o.pending, pendingOutput{num: o.num, reply: w.FinishAsync()})
		return nil
	}
	done := o.job.Trace.StartSpan("flush_table")
	stats, err := w.Finish()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	done()
	if err != nil {
		return err
	}
	o.record(o.num, stats)
	return nil
}

// record adds one finished table to the result.
func (o *outputs) record(num uint64, stats sstable.WriterStats) {
	o.res.Outputs = append(o.res.Outputs, NewOutputTable(num, stats))
	o.res.Stats.BytesWritten += stats.FileSize
}

// close releases what an abandoned merge leaves behind; after a merge
// that ran to the end it only joins the pipe's goroutines. The open
// table's file may still be written by the pipe's sequencer, so the pipe
// is joined before the file is closed. A half-written output is deleted
// by the obsolete-file sweep, so its close error is irrelevant.
func (o *outputs) close() {
	if o.pipe != nil {
		o.pipe.Close()
	}
	if o.f != nil {
		_ = o.f.Close()
	}
}
