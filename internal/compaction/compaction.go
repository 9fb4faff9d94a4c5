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
	// Parts is how many key ranges the merge was cut into (CutKeys): 1 for
	// a merge done whole.
	Parts int
	// Pipeline is always zero: the lane it counted is deleted. Removed by
	// ROADMAP item 4's [benchmark] PR, with the compaction.pipe_* rows.
	Pipeline PipelineStats
}

// PipelineConfig and PipelineStats are compile shims for the frozen
// benchmark ledger, with no effect: the pipelined lane is deleted (see
// EXPERIMENTS.md, "The pipelined lane's verdict"). ROADMAP item 4's
// [benchmark] PR removes both, CPU.Pipeline and Stats.Pipeline.
type PipelineConfig struct{ Depth int }

// PipelineStats is always zero; see PipelineConfig.
type PipelineStats struct {
	EncodeStallNanos, PrefetchStallNanos, SubmitStallNanos int64
}

// Add does nothing: there is nothing but zeros to add. See PipelineConfig.
func (s *PipelineStats) Add(PipelineStats) {}

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
// for jobs exceeding the engine's input limit.
type CPU struct {
	// Pipeline is ignored; see PipelineConfig.
	Pipeline PipelineConfig
}

// Name implements Executor.
func (CPU) Name() string { return "cpu" }

// MaxRuns implements Executor: the software path takes any fan-in.
func (CPU) MaxRuns() int { return 0 }

// mergePart is the one CPU merge loop, over the entries of the runs in
// [lo, hi): drop what the Validity Check rejects, encode the rest into
// blocks and hand each one sealed to out, counting pairs into st.
func mergePart(job *Job, runs [][]*sstable.Reader, lo, hi []byte, out BlockSink, st *Stats) error {
	m := getPartMerge(runs, lo, hi, job.TableOpts.WithDefaults().BlockSize)
	defer m.release()
	enc := GetBlockEncoder(job.TableOpts, job.TableOpts.FilterBitsPerKey > 0)
	defer enc.Release()
	m.drop = DropPolicy{SmallestSnapshot: job.SmallestSnapshot, BottomLevel: job.BottomLevel, curUser: m.drop.curUser[:0]}
	merged := &m.merged
	for merged.SeekToFirst(); merged.Valid(); merged.Next() {
		st.PairsIn++
		ikey := merged.Key()
		if m.drop.Drop(ikey) {
			st.PairsDropped++
			continue
		}
		st.PairsOut++
		if b := enc.Add(ikey, merged.Value()); b != nil {
			if err := out.Add(b); err != nil {
				return err
			}
		}
	}
	if err := merged.Error(); err != nil {
		return err
	}
	if b := enc.Flush(); b != nil {
		return out.Add(b)
	}
	return nil
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
