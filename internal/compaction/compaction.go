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

// PipelineStats counts per-stage stalls of the pipelined CPU data path,
// the software analogues of the paper's pipeline-occupancy counters:
// prefetch stalls mean the read-ahead stage is the bottleneck, encode
// stalls the encoder workers, submit stalls the writer behind them.
type PipelineStats struct {
	// Blocks is the number of output data blocks pushed through the
	// encode stage.
	Blocks int64
	// PrefetchStalls counts merge-side waits for a prefetched input
	// block; PrefetchStallNanos is the summed wait.
	PrefetchStalls     int64
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
	s.PrefetchStalls += o.PrefetchStalls
	s.PrefetchStallNanos += o.PrefetchStallNanos
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

// dropPolicy implements LevelDB's shadowing rules during a merge. Entries
// arrive in internal-key order (user key ascending, seq descending).
type dropPolicy struct {
	smallestSnapshot uint64
	bottomLevel      bool

	curUser    []byte
	hasCur     bool
	hasPrev    bool   // a previous entry for curUser has been seen
	lastSeqFor uint64 // sequence of the previous entry for curUser
}

// drop reports whether the entry (ikey) is garbage.
func (d *dropPolicy) drop(ikey []byte) bool {
	user := keys.UserKey(ikey)
	seq, kind := keys.DecodeTrailer(ikey)
	if !d.hasCur || keys.CompareUser(user, d.curUser) != 0 {
		d.curUser = append(d.curUser[:0], user...)
		d.hasCur = true
		d.hasPrev = false
	}
	dropped := false
	switch {
	case d.hasPrev && d.lastSeqFor <= d.smallestSnapshot:
		// A newer entry for this user key is already visible to the
		// oldest snapshot: this one is shadowed.
		dropped = true
	case kind == keys.KindDelete && seq <= d.smallestSnapshot && d.bottomLevel:
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
// the data path runs stage-parallel (read-ahead → merge → encode, see
// pipelined.go) with byte-identical outputs; the zero value is the
// sequential reference implementation.
type CPU struct {
	Pipeline PipelineConfig
}

// Name implements Executor.
func (CPU) Name() string { return "cpu" }

// MaxRuns implements Executor: the software path takes any fan-in.
func (CPU) MaxRuns() int { return 0 }

// Compact implements Executor.
func (c CPU) Compact(job *Job, env Env) (*Result, error) {
	if c.Pipeline.Depth > 0 {
		return c.compactPipelined(job, env)
	}
	return c.compactSequential(job, env)
}

// compactSequential is the single-goroutine reference data path; the
// pipelined path must produce byte-identical outputs.
func (CPU) compactSequential(job *Job, env Env) (*Result, error) {
	its := make([]iter.Iterator, 0, len(job.Runs))
	for _, run := range job.Runs {
		readers, err := openReaders(run, job.TableOpts)
		if err != nil {
			return nil, err
		}
		its = append(its, newRunIter(&scanFeed{scan: runScanner{readers: readers}}))
	}
	merged := iter.NewMerging(its...)
	merged.SeekToFirst()

	res := &Result{}
	res.Stats.BytesRead = job.InputBytes()
	drop := dropPolicy{smallestSnapshot: job.SmallestSnapshot, bottomLevel: job.BottomLevel}

	var out *outputWriter
	defer func() {
		if out != nil {
			out.abort()
		}
	}()

	var lastUser []byte
	for ; merged.Valid(); merged.Next() {
		res.Stats.PairsIn++
		ikey := merged.Key()
		if drop.drop(ikey) {
			res.Stats.PairsDropped++
			continue
		}
		// Close a full output only at a user-key boundary so that no user
		// key ever spans two tables in one level (that would break the
		// one-file-per-level lookup invariant).
		if out != nil && uint64(out.w.EstimatedSize()) >= job.MaxOutputBytes &&
			keys.CompareUser(keys.UserKey(ikey), lastUser) != 0 {
			done := job.Trace.StartSpan("flush_table")
			ot, err := out.finish()
			done()
			if err != nil {
				return nil, err
			}
			res.Outputs = append(res.Outputs, ot)
			res.Stats.BytesWritten += ot.Size
			out = nil
		}
		if out == nil {
			var err error
			if out, err = newOutput(env, job.TableOpts); err != nil {
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
	if out != nil {
		done := job.Trace.StartSpan("flush_table")
		ot, err := out.finish()
		done()
		if err != nil {
			return nil, err
		}
		if ot.Entries > 0 {
			res.Outputs = append(res.Outputs, ot)
			res.Stats.BytesWritten += ot.Size
		}
		out = nil
	}
	return res, nil
}

// outputWriter pairs an sstable writer with its destination file.
type outputWriter struct {
	num uint64
	f   io.WriteCloser
	w   *sstable.Writer
}

func newOutput(env Env, opts sstable.Options) (*outputWriter, error) {
	num, f, err := env.NewOutput()
	if err != nil {
		return nil, err
	}
	return &outputWriter{num: num, f: f, w: sstable.NewWriter(f, opts)}, nil
}

func (o *outputWriter) add(ikey, value []byte) error { return o.w.Add(ikey, value) }

func (o *outputWriter) finish() (OutputTable, error) {
	stats, err := o.w.Finish()
	if err != nil {
		_ = o.f.Close()
		return OutputTable{}, err
	}
	if err := o.f.Close(); err != nil {
		return OutputTable{}, err
	}
	return OutputTable{
		Num:      o.num,
		Size:     stats.FileSize,
		Entries:  stats.Entries,
		Smallest: stats.Smallest,
		Largest:  stats.Largest,
	}, nil
}

// abort discards a half-written output; the file is deleted by the
// obsolete-file sweep, so its close error is irrelevant.
func (o *outputWriter) abort() { _ = o.f.Close() }
