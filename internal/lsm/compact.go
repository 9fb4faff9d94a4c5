package lsm

import (
	"io"
	"path/filepath"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/dispatch"
	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/memtable"
	"fcae/internal/obs"
	"fcae/internal/sstable"
	"fcae/internal/vfs"
)

// poolWorker is one goroutine of the shared flush/compaction pool
// (DispatchConfig.Workers instances). Flushes are the highest priority: a
// worker always drains a pending memtable before picking a merge
// compaction, mirroring the dispatch scheduler's L0-first queue so that —
// as in the paper's FCAE schedule (§VI-A) — flushes proceed while merge
// compactions execute on the engine. Merge compactions each claim their
// input and output levels under db.mu (busyLevels), so in-flight jobs
// never share a level and therefore never reference the same files — a
// W-worker pool keeps up to W-1 device channels busy while the manifest
// path stays serialized under db.mu.
func (db *DB) poolWorker() {
	defer db.wg.Done()
	db.mu.Lock()
	for {
		if db.closed || db.bgErr != nil {
			db.bgCond.Broadcast()
			db.mu.Unlock()
			db.flushEvents()
			return
		}
		if db.imm != nil && !db.flushBusy {
			db.runFlushLocked()
			continue
		}
		if c := db.pickCompactionLocked(); c != nil {
			// Claim c's levels, execute it through the dispatch scheduler
			// and deliver its events. db.mu is released during the merge
			// (runCompaction drops it around the device round-trip) and
			// during event delivery.
			db.setLevelClaimsLocked(c, true)
			db.compacting++
			err := db.runCompaction(c)
			if err != nil {
				db.bgErr = err
				db.queueEventLocked(func(l obs.EventListener) {
					l.BackgroundError(obs.BackgroundErrorEvent{Op: "compaction", Err: err})
				})
			}
			db.setLevelClaimsLocked(c, false)
			db.deleteObsoleteFilesLocked()
			// Deliver outside the mutex; compacting stays raised until
			// delivery completes so CompactLevel/WaitIdle/Close imply
			// delivery.
			db.mu.Unlock()
			db.flushEvents()
			db.mu.Lock()
			db.compacting--
			db.bgCond.Broadcast()
			continue
		}
		db.bgCond.Wait()
	}
}

// runFlushLocked drains db.imm into an L0 table (the first type of
// compaction, paper §II-A). Callers hold db.mu with db.imm != nil and
// !db.flushBusy; the mutex is released during the table build and event
// delivery and held again on return.
func (db *DB) runFlushLocked() {
	db.flushBusy = true
	imm := db.imm
	if err := db.flushMem(imm, db.nextJobIDLocked()); err != nil {
		db.bgErr = err
		db.queueEventLocked(func(l obs.EventListener) {
			l.BackgroundError(obs.BackgroundErrorEvent{Op: "flush", Err: err})
		})
	} else {
		db.imm = nil
	}
	db.deleteObsoleteFilesLocked()
	// Deliver outside the mutex. flushBusy stays set until delivery
	// completes, so Flush/WaitIdle/Close returning implies the
	// listener has observed this flush.
	db.mu.Unlock()
	db.flushEvents()
	db.mu.Lock()
	db.flushBusy = false
	db.bgCond.Broadcast()
}

// flushMem writes mem as an L0 table and logs the edit. Callers hold
// db.mu; the mutex is released during the table build so foreground writes
// and compactions continue. Every path queues a FlushEnd matching the
// FlushBegin queued here.
func (db *DB) flushMem(mem *memtable.MemTable, jobID uint64) (err error) {
	start := time.Now()
	db.queueEventLocked(func(l obs.EventListener) {
		l.FlushBegin(obs.FlushBeginEvent{JobID: jobID, MemTableBytes: mem.ApproximateSize()})
	})
	var (
		output obs.TableInfo
		pairs  compaction.Stats
	)
	defer func() {
		wall := time.Since(start)
		ferr := err
		db.queueEventLocked(func(l obs.EventListener) {
			l.FlushEnd(obs.FlushEndEvent{JobID: jobID, Output: output, Wall: wall,
				PairsIn: pairs.PairsIn, PairsDropped: pairs.PairsDropped, Err: ferr})
		})
	}()

	num := db.vs.AllocFileNum()
	walNum := db.walNum
	// A flush is a merge of one run and drops what a merge would. Taken
	// under db.mu: a reader acquired earlier still holds mem (as db.mem or
	// db.imm), a later one reads at db.seq or above, and a snapshot is
	// registered — so no reader can see a version this drops.
	smallest := db.smallestSnapshotLocked()
	// Guard the half-built table from the obsolete-file sweep until its
	// edit lands (a concurrent compaction's sweep must not reap it).
	db.pendingOutputs[num] = true
	defer delete(db.pendingOutputs, num)
	db.mu.Unlock()
	db.flushEvents() // let the listener see FlushBegin before the build
	meta, pairs, err := db.buildTable(num, mem, smallest)
	db.mu.Lock()
	if err != nil {
		return err
	}
	edit := &manifest.VersionEdit{}
	edit.SetLogNum(walNum)
	edit.SetLastSeq(db.seq)
	if meta != nil {
		edit.AddFile(0, meta)
	}
	if err := db.vs.LogAndApply(edit); err != nil {
		return err
	}
	if meta != nil {
		db.met.flushes.Inc()
		db.met.flushBytes.Add(int64(meta.Size))
		db.met.flushDropped.Add(int64(pairs.PairsDropped))
		db.met.tablesCreated.Inc()
		output = obs.TableInfo{Num: meta.Num, Level: 0, Size: int64(meta.Size)}
		db.queueEventLocked(func(l obs.EventListener) {
			l.TableCreated(obs.TableCreatedEvent{JobID: jobID, Table: output})
		})
	}
	db.met.flushWall.ObserveDuration(time.Since(start))
	db.bgCond.Broadcast() // compactions may now be needed
	return nil
}

// buildTable renders mem into table file num, leaving out the versions
// the Validity Check drops with smallestSnapshot as the oldest reader
// (not bottom level: tombstones stay); the returned stats count entries
// read and dropped. Returns nil metadata when the memtable is empty.
func (db *DB) buildTable(num uint64, mem *memtable.MemTable, smallestSnapshot uint64) (*manifest.FileMetadata, compaction.Stats, error) {
	var pairs compaction.Stats
	drop := compaction.DropPolicy{SmallestSnapshot: smallestSnapshot}
	it := mem.NewIterator()
	it.SeekToFirst()
	if !it.Valid() {
		return nil, pairs, nil
	}
	var stats sstable.WriterStats
	err := vfs.WriteDurable(db.fs, tablePath(db.dir, num), func(f io.Writer) (err error) {
		w := sstable.NewWriter(f, db.opts.tableOpts())
		for ; it.Valid(); it.Next() {
			pairs.PairsIn++
			if drop.Drop(it.Key()) {
				pairs.PairsDropped++
				continue
			}
			if err := w.Add(it.Key(), it.Value()); err != nil {
				return err
			}
		}
		stats, err = w.Finish()
		return err
	})
	if err != nil {
		return nil, pairs, err
	}
	return &manifest.FileMetadata{
		Num:      num,
		Size:     uint64(stats.FileSize),
		RunID:    num, // every flush output is its own sorted run
		Smallest: stats.Smallest,
		Largest:  stats.Largest,
	}, pairs, nil
}

// maxCompactingLocked bounds concurrent merge compactions. With more than
// one pool worker, one slot stays reserved for flushes so a full set of
// merges cannot wedge memtable rotation; a single-worker pool gets its one
// slot back — poolWorker's flush preference keeps flushes live between
// jobs. Callers hold db.mu.
func (db *DB) maxCompactingLocked() int {
	if db.poolSize > 1 {
		return db.poolSize - 1
	}
	return db.poolSize
}

// pickCompactionLocked returns the next claimable merge compaction (the
// second type, paper §II-A), or nil when none is runnable. Callers hold
// db.mu; level claims for the returned compaction are taken by the
// poolWorker loop, not here.
func (db *DB) pickCompactionLocked() *manifest.Compaction {
	if db.compacting >= db.maxCompactingLocked() {
		return nil
	}
	if m := db.manual; m != nil {
		c := db.vs.PickCompactionAtLevel(m.level, m.r)
		switch {
		case c == nil:
			// No table at the level touches the range (any more); drop
			// the request and fall through to the size picker.
			db.manual = nil
			db.bgCond.Broadcast()
		case db.levelRangeFreeLocked(c.Level, c.OutputLevel()):
			db.manual, m.picked = nil, true
			return c
		default:
			// Another worker owns one of the levels; the manual request
			// stays posted until it can be claimed.
			return nil
		}
	}
	return db.vs.PickCompactionFiltered(db.levelRangeFreeLocked)
}

// levelRangeFreeLocked reports whether a compaction reading level and
// writing outputLevel would overlap an in-flight job's claims. Callers
// hold db.mu (it is also the filter passed to PickCompactionFiltered,
// which invokes it with vs.mu additionally held — db.mu -> vs.mu is the
// established order).
func (db *DB) levelRangeFreeLocked(level, outputLevel int) bool {
	return !db.busyLevels[level] && !db.busyLevels[outputLevel]
}

// setLevelClaimsLocked claims or releases c's input and output levels.
// An L0 merge claims L0, so at most one is in flight: the dispatch queue
// relies on this and has no starvation timer. Callers hold db.mu.
func (db *DB) setLevelClaimsLocked(c *manifest.Compaction, claimed bool) {
	db.busyLevels[c.Level] = claimed
	db.busyLevels[c.OutputLevel()] = claimed
}

// smallestSnapshotLocked returns the oldest sequence any reader may need.
func (db *DB) smallestSnapshotLocked() uint64 {
	smallest := db.seq
	for s := range db.snapshots {
		if s < smallest {
			smallest = s
		}
	}
	return smallest
}

// runCompaction executes one picked compaction. Called with db.mu held;
// the mutex is released while the executor runs. Once a CompactionBegin is
// queued, every return path queues the matching CompactionEnd.
func (db *DB) runCompaction(c *manifest.Compaction) (err error) {
	jobID := db.nextJobIDLocked()
	start := time.Now()
	inputs := tableInfos(c.Inputs[0], c.Level)
	inputs = append(inputs, tableInfos(c.Inputs[1], c.Level+1)...)

	// L0 compactions go to the front of the dispatcher's queue: they gate
	// flushes (and therefore writes), so they must not queue behind deep
	// merges (paper §VI-A).
	pri := obs.PriorityDeep
	if c.Level == 0 {
		pri = obs.PriorityL0
	}

	if c.IsTrivialMove() {
		f := c.Inputs[0][0]
		db.queueEventLocked(func(l obs.EventListener) {
			l.CompactionBegin(obs.CompactionBeginEvent{
				JobID: jobID, Level: c.Level, OutputLevel: c.Level + 1,
				TrivialMove: true, Priority: pri, Inputs: inputs,
			})
		})
		edit := &manifest.VersionEdit{}
		edit.DeleteFile(c.Level, f.Num)
		// The moved file joins the target level's single run 0 (its L0
		// run id must not leak downward, or the level would silently
		// split into overlapping runs).
		moved := *f
		moved.RunID = 0
		edit.AddFile(c.Level+1, &moved)
		db.met.trivialMoves.Inc()
		if c.Ahead {
			db.met.trivialAhead.Inc()
		}
		err = db.vs.LogAndApply(edit)
		movedInfo := obs.TableInfo{Num: f.Num, Level: c.Level + 1, Size: int64(f.Size)}
		wall := time.Since(start)
		moveErr := err
		db.queueEventLocked(func(l obs.EventListener) {
			l.CompactionEnd(obs.CompactionEndEvent{
				JobID: jobID, Level: c.Level, OutputLevel: c.Level + 1,
				TrivialMove: true, Priority: pri, Inputs: inputs,
				Outputs: []obs.TableInfo{movedInfo},
				Wall:    wall, Err: moveErr,
			})
		})
		return err
	}

	outLevel := c.OutputLevel()
	db.queueEventLocked(func(l obs.EventListener) {
		l.CompactionBegin(obs.CompactionBeginEvent{
			JobID: jobID, Level: c.Level, OutputLevel: outLevel,
			Priority: pri, Inputs: inputs,
		})
	})
	tr := obs.NewTrace()
	var (
		outputs []obs.TableInfo
		route   dispatch.Route
		cstats  compaction.Stats
	)
	defer func() {
		wall := time.Since(start)
		endErr := err
		db.queueEventLocked(func(l obs.EventListener) {
			l.CompactionEnd(obs.CompactionEndEvent{
				JobID: jobID, Level: c.Level, OutputLevel: outLevel,
				Executor: route.Executor, Fallback: route.Fallback(),
				Lane: route.Lane, RouteReason: route.Reason,
				Priority:       pri,
				DeviceAttempts: route.DeviceAttempts,
				Inputs:         inputs, Outputs: outputs,
				PairsIn: cstats.PairsIn, PairsOut: cstats.PairsOut,
				PairsDropped: cstats.PairsDropped, Parts: cstats.Parts,
				BytesRead: cstats.BytesRead, BytesWritten: cstats.BytesWritten,
				KernelTime: cstats.KernelTime, TransferTime: cstats.TransferTime,
				Wall: wall, Trace: tr, Err: endErr,
			})
		})
	}()

	job := &compaction.Job{
		SmallestSnapshot: db.smallestSnapshotLocked(),
		BottomLevel:      c.IsBottomLevel(db.vs.Current()),
		TableOpts:        db.opts.tableOpts(),
		MaxOutputBytes:   db.opts.MaxOutputFileBytes,
		Trace:            tr,
	}

	// One merge input per sorted run (paper §IV step 2).
	openDone := tr.StartSpan("open_runs")
	var opened []vfs.File
	defer func() {
		for _, f := range opened {
			// Read-only inputs; close errors cannot lose data.
			_ = f.Close()
		}
	}()
	for _, files := range c.InputRuns() {
		var run []compaction.Table
		for _, fm := range files {
			f, err := db.fs.Open(tablePath(db.dir, fm.Num))
			if err != nil {
				return err
			}
			opened = append(opened, f)
			run = append(run, compaction.Table{Num: fm.Num, Size: int64(fm.Size), Data: f})
		}
		job.Runs = append(job.Runs, run)
	}
	openDone()

	env := &dbEnv{db: db}
	db.mu.Unlock()
	db.flushEvents() // let the listener see CompactionBegin before the merge
	// The dispatch scheduler routes the job between the device channel
	// pool and the CPU lane (paper Fig 6: fan-in, budget and backpressure
	// route to software) and owns retry/fallback when a channel faults.
	mergeDone := tr.StartSpan("merge")
	var res *compaction.Result
	res, route, err = db.sched.Execute(job, env, pri)
	mergeDone()
	db.mu.Lock()
	defer func() {
		// This job's outputs are either referenced by the applied edit or
		// garbage; either way the sweep may now consider them.
		for _, num := range env.nums {
			delete(db.pendingOutputs, num)
		}
	}()
	if err != nil {
		return err
	}
	cstats = res.Stats

	edit := &manifest.VersionEdit{}
	for level, side := range c.Inputs {
		for _, fm := range side {
			edit.DeleteFile(c.Level+level, fm.Num)
		}
	}
	// Tiered outputs form one fresh run; leveled outputs join the target
	// level's single run 0.
	var runID uint64
	if db.opts.TieredRuns > 0 {
		runID = db.vs.AllocFileNum()
	}
	for _, out := range res.Outputs {
		edit.AddFile(c.OutputLevel(), &manifest.FileMetadata{
			Num:      out.Num,
			Size:     uint64(out.Size),
			RunID:    runID,
			Smallest: out.Smallest,
			Largest:  out.Largest,
		})
	}
	applyDone := tr.StartSpan("manifest_apply")
	if err = db.vs.LogAndApply(edit); err != nil {
		return err
	}
	applyDone()

	for _, out := range res.Outputs {
		info := obs.TableInfo{Num: out.Num, Level: outLevel, Size: out.Size}
		outputs = append(outputs, info)
		db.queueEventLocked(func(l obs.EventListener) {
			l.TableCreated(obs.TableCreatedEvent{JobID: jobID, Table: info})
		})
	}

	db.met.compactions.Inc()
	if route.OnDevice() {
		db.met.hwCompactions.Inc()
	}
	if route.Fallback() {
		db.met.swFallbacks.Inc()
	}
	wall := time.Since(start)
	db.met.compactionRead.Add(res.Stats.BytesRead)
	db.met.compactionWrite.Add(res.Stats.BytesWritten)
	db.met.compactionParts.Add(int64(res.Stats.Parts))
	db.met.kernelNanos.Add(res.Stats.KernelTime.Nanoseconds())
	db.met.transferNanos.Add(res.Stats.TransferTime.Nanoseconds())
	db.met.tablesCreated.Add(int64(len(res.Outputs)))
	db.met.compactionWall.ObserveDuration(wall)
	db.met.levelCompactions[c.Level].Inc()
	db.met.levelRead[c.Level].Add(res.Stats.BytesRead)
	for _, f := range c.Inputs[1] {
		db.met.levelOverlap[c.Level].Add(int64(f.Size))
	}
	db.met.levelWrite[c.Level].Add(res.Stats.BytesWritten)
	db.met.levelWallNanos[c.Level].Add(wall.Nanoseconds())
	return nil
}

// dbEnv implements compaction.Env over the database directory.
type dbEnv struct {
	db   *DB
	nums []uint64 // file numbers allocated by this job
}

// NewOutput implements compaction.Env. Called without db.mu held (the
// executor runs with the mutex released).
func (e *dbEnv) NewOutput() (uint64, io.WriteCloser, error) {
	num := e.db.vs.AllocFileNum()
	e.db.mu.Lock()
	e.db.pendingOutputs[num] = true
	e.nums = append(e.nums, num)
	e.db.mu.Unlock()
	f, err := e.db.fs.Create(tablePath(e.db.dir, num))
	if err != nil {
		return 0, nil, err
	}
	return num, f, nil
}

// manualCompaction requests one merge of level's tables touching r.
type manualCompaction struct {
	level  int
	r      keys.Range
	picked bool // a worker took a job for it; set under db.mu
}

// CompactLevel runs the merge the size picker would build at level, due
// or not, and waits for it; it does nothing at an empty or the last level.
func (db *DB) CompactLevel(level int) error {
	_, err := db.compactManual(level, keys.Range{})
	return err
}

// compactManual posts a manual compaction, once no other is posted, and
// waits for it and every merge in flight; picked reports whether it ran.
func (db *DB) compactManual(level int, r keys.Range) (picked bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false, ErrClosed
	}
	m := &manualCompaction{level: level, r: r}
	posted := false
	for !posted || db.manual == m || db.compacting > 0 {
		if db.bgErr != nil {
			return false, db.bgErr
		}
		if db.closed {
			// Close raced the wait: report the typed sentinel, not the
			// (nil) background error, so callers can tell "store closing"
			// from "compaction succeeded".
			return false, ErrClosed
		}
		if !posted && db.manual == nil {
			db.manual, posted = m, true
			db.bgCond.Broadcast()
			continue
		}
		db.bgCond.Wait()
	}
	return m.picked, db.bgErr
}

// Flush forces the current memtable to disk and waits for completion.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.mem.Empty() && db.imm == nil {
		return nil
	}
	for db.imm != nil || db.committing {
		// Rotating the WAL or swapping memtables under a group leader's
		// unlocked commit window would tear that group.
		if db.bgErr != nil {
			return db.bgErr
		}
		if db.closed {
			return ErrClosed
		}
		db.bgCond.Wait()
	}
	if db.mem.Empty() {
		return db.bgErr
	}
	if err := db.newWALLocked(); err != nil {
		return err
	}
	db.imm = db.mem
	db.mem = memtable.New(db.nextMemSeedLocked())
	db.bgCond.Broadcast()
	// flushBusy clears only after the flush worker delivered its events,
	// so a returned Flush implies the listener saw FlushEnd.
	for (db.imm != nil || db.flushBusy) && db.bgErr == nil && !db.closed {
		db.bgCond.Wait()
	}
	if db.bgErr == nil && db.closed && (db.imm != nil || db.flushBusy) {
		// Close interrupted the wait before the flush completed.
		return ErrClosed
	}
	return db.bgErr
}

// WaitIdle blocks until no flush or compaction work is pending, useful for
// deterministic benchmarks.
func (db *DB) WaitIdle() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		if db.bgErr != nil {
			return db.bgErr
		}
		if db.closed {
			return ErrClosed
		}
		if db.imm == nil && !db.flushBusy && db.compacting == 0 && db.manual == nil {
			if _, _, due := db.vs.Config().PickLevel(db.vs.Current().Shape(), nil); !due {
				return nil
			}
		}
		db.bgCond.Wait()
	}
}

// deleteObsoleteFiles removes files no longer referenced by the version
// state. Called with db.mu held.
func (db *DB) deleteObsoleteFilesLocked() {
	if db.holdDeletions > 0 {
		return // an external backup is copying the directory
	}
	entries, err := db.fs.ReadDir(db.dir)
	if err != nil {
		return
	}
	live := db.vs.LiveFileNums()
	minLog := db.vs.LogNum()
	for _, e := range entries {
		kind, num := parseFileName(e.Name())
		keep := true
		switch kind {
		case kindWAL:
			keep = num >= minLog || num == db.walNum
		case kindTable:
			keep = live[num] || db.pendingOutputs[num]
		case kindTemp:
			keep = false
		}
		if !keep {
			if kind == kindTable {
				db.tables.evict(num)
			}
			if db.fs.Remove(filepath.Join(db.dir, e.Name())) == nil && kind == kindTable {
				db.met.tablesDeleted.Inc()
				tableNum := num
				db.queueEventLocked(func(l obs.EventListener) {
					l.TableDeleted(obs.TableDeletedEvent{Num: tableNum})
				})
			}
		}
	}
}
