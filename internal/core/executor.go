package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"fcae/internal/compaction"
	"fcae/internal/model"
	"fcae/internal/obs"
	"fcae/internal/sstable"
)

// Executor adapts the engine to the store's compaction.Executor interface.
// It performs the full host-side protocol of paper §IV: build the device
// memory images, DMA them over PCIe, run the engine, DMA the results back
// and combine them into standard SSTable files. A mutex serializes jobs —
// the card has one pipeline.
type Executor struct {
	engine *Engine // immutable after NewExecutor

	mu sync.Mutex

	// arena is the channel's persistent device-memory staging allocation,
	// Reset at the start of every job, so each compaction reuses the same
	// backing slab.
	arena *Arena

	// scanners[k] walks run k's tables while the job stages it; its
	// window buffer outlives the job, so staging allocates none.
	scanners []sstable.BlockScanner

	// Totals since creation, surfaced in DB stats.
	jobs          int
	kernelCycles  float64
	bytesShipped  int64
	bytesReturned int64
}

// NewExecutor returns a compaction executor backed by an engine with cfg.
func NewExecutor(cfg Config) (*Executor, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Executor{
		engine:   eng,
		arena:    NewArena(eng.cfg.ArenaBytes()),
		scanners: make([]sstable.BlockScanner, eng.cfg.N),
	}, nil
}

// ArenaBytes reports the channel's staging-arena capacity, implementing
// the dispatcher's ArenaSizer.
func (x *Executor) ArenaBytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.arena.Cap()
}

// ArenaInputBudget reports the largest job input size the arena can
// stage, implementing the dispatcher's ArenaSizer.
func (x *Executor) ArenaInputBudget() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.arena.InputBudget()
}

// ArenaHighWater reports the peak staging-arena occupancy over the
// channel's lifetime, implementing the dispatcher's ArenaSizer.
// Near-capacity values mean jobs are about to spill to heap fallback;
// far-below-capacity values mean the carve is oversized.
func (x *Executor) ArenaHighWater() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.arena.HighWater()
}

// Name implements compaction.Executor.
func (x *Executor) Name() string { return "fcae" }

// MaxRuns implements compaction.Executor: the engine takes up to N sorted
// inputs; beyond that the host compacts in software (§VI-A: "when the
// number of involved SSTables in Level 0 is larger than N-1, the
// compaction task will be processed completely by the software").
func (x *Executor) MaxRuns() int { return x.engine.cfg.N }

// Compact implements compaction.Executor.
func (x *Executor) Compact(job *compaction.Job, env compaction.Env) (*compaction.Result, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(job.Runs) > x.engine.cfg.N {
		return nil, fmt.Errorf("%w: %d runs", ErrTooManyInputs, len(job.Runs))
	}

	// Step 3-4 (paper §IV): serialize each input into its device image.
	// The previous job's staged images are dead once its tables have been
	// written; rewind the arena so this job reuses the backing slab. Each
	// input table is opened once: the same readers feed the images and
	// the cut rule.
	x.arena.Reset()

	buildDone := job.Trace.StartSpan("build_images")
	runs, err := compaction.OpenRuns(job)
	if err != nil {
		return nil, err
	}
	images, cuts, err := x.stageLocked(job, runs)
	if err != nil {
		return nil, err
	}
	var shipBytes int64
	for _, img := range images {
		shipBytes += img.Bytes()
	}
	buildDone()

	// Step 5-8: run the engine, ending a block at each of the cuts the CPU
	// lane merges apart, and combine its blocks into standard table files
	// as its parts drain.
	res := &compaction.Result{Stats: compaction.Stats{BytesRead: job.InputBytes(), Parts: len(cuts) + 1}}
	tables := compaction.NewTables(job, env, res)
	er, err := x.engine.Run(images, Params{
		BlockSize:         job.TableOpts.BlockSize,
		TableBytes:        int64(job.MaxOutputBytes),
		RestartInterval:   job.TableOpts.RestartInterval,
		Compress:          job.TableOpts.Compression == sstable.SnappyCompression,
		SmallestSnapshot:  job.SmallestSnapshot,
		BottomLevel:       job.BottomLevel,
		Cuts:              cuts,
		CollectFilterKeys: job.TableOpts.FilterBitsPerKey > 0,
		Tables:            tables,
		Arena:             x.arena,
	})
	if err != nil {
		return nil, err
	}

	// What crosses PCIe back: the data blocks and their index entries
	// (Stats.BytesOut, with the keys the host chose) and a MetaOut entry
	// per table, its bounds and counts (Fig 8).
	returnBytes := er.Stats.BytesOut + tables.IndexKeyBytes()
	for _, ot := range res.Outputs {
		returnBytes += int64(len(ot.Smallest) + len(ot.Largest) + metaOutEntryFixedLen)
	}
	res.Stats.PairsIn = er.Stats.PairsIn
	res.Stats.PairsOut = er.Stats.PairsOut
	res.Stats.PairsDropped = er.Stats.PairsDropped
	res.Stats.KernelTime = er.Stats.KernelTime()
	res.Stats.TransferTime = model.PCIeTransferTime(shipBytes) + model.PCIeTransferTime(returnBytes)

	x.addTotalsLocked(er.Stats.Cycles, shipBytes, returnBytes)
	return res, nil
}

// stageLocked serializes each of job's runs into its device image, one
// compaction.RunParts claim per run, each into an arena region of its
// own sized from the run's index blocks. The MetaIn block crosses the DMA
// boundary as real bytes (Fig 8); the "device side" decodes it back. When
// the job is cut, each claim also lists its run's blocks for the cut
// rule, which is how the cuts come from one walk of the index blocks.
func (x *Executor) stageLocked(job *compaction.Job, runs [][]*sstable.Reader) ([]*InputImage, [][]byte, error) {
	wIn := x.engine.cfg.WIn
	regions := make([]*Arena, len(runs))
	for i, run := range runs {
		// An image holds a block's payload and type byte padded to wIn
		// (no more than the table stores plus wIn), and an index entry of
		// its index key and three varints.
		var idx, data int
		for j, r := range run {
			idx += r.IndexSize() + r.NumBlocks()*3*binary.MaxVarintLen64
			data += int(job.Runs[i][j].Size) + r.NumBlocks()*wIn
		}
		var err error
		if regions[i], err = x.arena.carve(idx, data); err != nil {
			return nil, nil, err
		}
	}
	var lists []compaction.CutBlocks
	if compaction.PartCount(job) > 1 {
		lists = make([]compaction.CutBlocks, len(runs))
	}
	images := make([]*InputImage, len(runs))
	errs := make([]error, len(runs))
	stage := func(k int) error {
		var cuts *compaction.CutBlocks
		if lists != nil {
			cuts = &lists[k]
		}
		img, err := stageRun(runs[k], wIn, regions[k], cuts, &x.scanners[k])
		if err != nil {
			return err
		}
		descs, err := DecodeMetaIn(EncodeMetaIn(img))
		if err != nil {
			return fmt.Errorf("core: MetaIn round trip: %w", err)
		}
		img.Tables = descs
		images[k] = img
		return nil
	}
	err := compaction.RunParts(len(runs), stage,
		func(k int) { errs[k] = stage(k) },
		func(k int) error { return errs[k] })
	if err != nil {
		return nil, nil, err
	}
	var cuts [][]byte
	if lists != nil {
		cuts = compaction.Cuts(job, lists)
	}
	return images, cuts, nil
}

// addTotalsLocked folds one job's outcome into the lifetime counters.
//
//fcae:cycle-accounting
func (x *Executor) addTotalsLocked(cycles float64, shipped, returned int64) {
	x.jobs++
	x.kernelCycles += cycles
	x.bytesShipped += shipped
	x.bytesReturned += returned
}

// Totals reports lifetime executor statistics.
func (x *Executor) Totals() (jobs int, kernelCycles float64, shipped, returned int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.jobs, x.kernelCycles, x.bytesShipped, x.bytesReturned
}

// PublishMetrics implements obs.MetricsPublisher: the engine's lifetime
// totals appear as callback gauges. The callbacks wait for an in-flight
// job (they take the executor mutex) but never touch the registry, so
// snapshotting cannot deadlock against a running compaction.
func (x *Executor) PublishMetrics(r *obs.Registry) {
	r.GaugeFunc("engine_jobs", func() float64 {
		jobs, _, _, _ := x.Totals()
		return float64(jobs)
	})
	r.GaugeFunc("engine_kernel_cycles", func() float64 {
		_, cycles, _, _ := x.Totals()
		return cycles
	})
	r.GaugeFunc("engine_shipped_bytes", func() float64 {
		_, _, shipped, _ := x.Totals()
		return float64(shipped)
	})
	r.GaugeFunc("engine_returned_bytes", func() float64 {
		_, _, _, returned := x.Totals()
		return float64(returned)
	})
}

// BuildInputImage serializes one sorted run of tables into a device image
// (paper Fig 7: index blocks continuous, data blocks WIn-aligned) in heap
// memory, opening the tables for the purpose.
func BuildInputImage(run []compaction.Table, wIn int, opts sstable.Options) (*InputImage, error) {
	runs, err := compaction.OpenRuns(&compaction.Job{Runs: [][]compaction.Table{run}, TableOpts: opts})
	if err != nil {
		return nil, err
	}
	return stageInputImage(runs[0], wIn, nil)
}

// RunJob runs the engine on job's inputs, serialized by BuildInputImage,
// under job's drop rule (SmallestSnapshot, BottomLevel) and p's other
// settings.
func (e *Engine) RunJob(job *compaction.Job, p Params) (*Result, error) {
	images := make([]*InputImage, len(job.Runs))
	for i, run := range job.Runs {
		img, err := BuildInputImage(run, e.cfg.WIn, job.TableOpts)
		if err != nil {
			return nil, err
		}
		images[i] = img
	}
	p.SmallestSnapshot, p.BottomLevel = job.SmallestSnapshot, job.BottomLevel
	return e.Run(images, p)
}

// stageInputImage serializes one sorted run of opened tables into a device
// image staged in a channel arena (a nil arena heap-allocates). It fails
// with an error wrapping compaction.ErrArenaExhausted when the run does
// not fit the arena.
func stageInputImage(run []*sstable.Reader, wIn int, a *Arena) (*InputImage, error) {
	return stageRun(run, wIn, a, nil, new(sstable.BlockScanner))
}

// stageRun is stageInputImage, listing each block in cuts too when it is
// not nil, and reading the tables through sc.
func stageRun(run []*sstable.Reader, wIn int, a *Arena, cuts *compaction.CutBlocks, sc *sstable.BlockScanner) (*InputImage, error) {
	b := NewInputBuilderArena(wIn, a)
	for _, r := range run {
		if cuts != nil {
			cuts.Grow(r.NumBlocks())
		}
		b.BeginTable()
		for sc.Reset(r); ; {
			rb, ok, err := sc.NextRaw()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if cuts != nil {
				cuts.Add(rb.IndexKey, uint64(len(rb.Payload)))
			}
			if err := b.AddBlock(rb.IndexKey, rb.CType, rb.Payload); err != nil {
				return nil, err
			}
		}
	}
	return b.Finish(), nil
}
