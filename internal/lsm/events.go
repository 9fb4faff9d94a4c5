package lsm

import (
	"fmt"

	"fcae/internal/manifest"
	"fcae/internal/obs"
)

// Event plumbing. Events are SEQUENCED under db.mu — each state change
// queues a delivery closure while the mutex is held, so the queue order is
// exactly the order the state machine executed — but DELIVERED outside it:
// workers and writers drain the queue via flushEvents after releasing
// db.mu. A second mutex (db.evMu) serializes delivery so the listener sees
// one event at a time, globally ordered. The fcaelint obscallback analyzer
// enforces the other half of the contract: no listener method may be
// invoked while db.mu is held.

// queueEventLocked appends one delivery closure. Callers hold db.mu.
func (db *DB) queueEventLocked(deliver func(obs.EventListener)) {
	if db.listener == nil {
		return
	}
	db.pendingEvents = append(db.pendingEvents, deliver)
}

// nextJobIDLocked allocates a flush/compaction job id. Callers hold db.mu.
func (db *DB) nextJobIDLocked() uint64 {
	db.jobSeq++
	return db.jobSeq
}

// flushEvents drains the pending queue and invokes the listener. Callers
// must NOT hold db.mu. The evMu -> mu lock order here is one-way: nothing
// acquires evMu while holding mu, so this cannot deadlock.
func (db *DB) flushEvents() {
	if db.listener == nil {
		return
	}
	db.evMu.Lock()
	defer db.evMu.Unlock()
	for {
		db.mu.Lock()
		if len(db.pendingEvents) == 0 {
			db.mu.Unlock()
			return
		}
		batch := db.pendingEvents
		db.pendingEvents = nil
		db.mu.Unlock()
		for _, deliver := range batch {
			db.deliver(deliver)
		}
	}
}

// deliver invokes one listener callback, converting a panic into a
// BackgroundError event so a buggy listener cannot kill a background
// worker. The store keeps running after a listener panic.
func (db *DB) deliver(fn func(obs.EventListener)) {
	defer func() {
		if r := recover(); r != nil {
			ev := obs.BackgroundErrorEvent{
				Op:  "listener",
				Err: fmt.Errorf("%w: %v", obs.ErrListenerPanic, r),
			}
			func() {
				// A listener that panics while being told it panicked is
				// given up on.
				defer func() { _ = recover() }()
				db.listener.BackgroundError(ev)
			}()
		}
	}()
	fn(db.listener)
}

// dbMetrics holds the registry instruments the hot paths publish into,
// resolved once at Open so no map lookup happens per operation.
type dbMetrics struct {
	writes        *obs.Counter
	writeBytes    *obs.Counter
	groupCommits  *obs.Counter
	groupedWrites *obs.Counter

	flushes    *obs.Counter
	flushBytes *obs.Counter
	// flushDropped counts memtable entries a flush left out: versions
	// shadowed by a newer write that every reader already sees.
	flushDropped *obs.Counter
	flushWall    *obs.Histogram

	compactions   *obs.Counter
	hwCompactions *obs.Counter
	swFallbacks   *obs.Counter
	trivialMoves  *obs.Counter
	trivialAhead  *obs.Counter
	// filterNegatives counts table probes a Get skipped on the filter's
	// word; blockMisses those that read the table's blocks and did not
	// find the key — with filters on, the filter's false positives.
	filterNegatives *obs.Counter
	blockMisses     *obs.Counter
	compactionRead  *obs.Counter
	compactionWrite *obs.Counter
	compactionParts *obs.Counter // key ranges merges were cut into
	kernelNanos     *obs.Counter
	transferNanos   *obs.Counter
	compactionWall  *obs.Histogram

	stallCount *obs.Counter
	stallNanos *obs.Counter
	stallWait  *obs.Histogram

	tablesCreated *obs.Counter
	tablesDeleted *obs.Counter

	levelCompactions [manifest.NumLevels]*obs.Counter
	levelRead        [manifest.NumLevels]*obs.Counter
	// levelOverlap counts the level+1 bytes merges out of a level read:
	// the part of levelRead that is rewritten, not moved down.
	levelOverlap   [manifest.NumLevels]*obs.Counter
	levelWrite     [manifest.NumLevels]*obs.Counter
	levelWallNanos [manifest.NumLevels]*obs.Counter
}

func newDBMetrics(r *obs.Registry) dbMetrics {
	m := dbMetrics{
		writes:        r.Counter("writes"),
		writeBytes:    r.Counter("write_bytes"),
		groupCommits:  r.Counter("group_commits"),
		groupedWrites: r.Counter("grouped_writes"),

		flushes:      r.Counter("flush_count"),
		flushBytes:   r.Counter("flush_bytes"),
		flushDropped: r.Counter("flush_dropped"),
		flushWall:    r.Histogram("flush_wall_nanos"),

		compactions:     r.Counter("compaction_count"),
		hwCompactions:   r.Counter("compaction_hw"),
		swFallbacks:     r.Counter("compaction_sw_fallback"),
		trivialMoves:    r.Counter("compaction_trivial"),
		trivialAhead:    r.Counter("compaction_trivial_ahead"),
		filterNegatives: r.Counter("get_filter_negatives"),
		blockMisses:     r.Counter("get_block_misses"),
		compactionRead:  r.Counter("compaction_read_bytes"),
		compactionWrite: r.Counter("compaction_write_bytes"),
		compactionParts: r.Counter("compaction_parts"),
		kernelNanos:     r.Counter("compaction_kernel_nanos"),
		transferNanos:   r.Counter("compaction_transfer_nanos"),
		compactionWall:  r.Histogram("compaction_wall_nanos"),

		stallCount: r.Counter("stall_count"),
		stallNanos: r.Counter("stall_nanos"),
		stallWait:  r.Histogram("stall_wait_nanos"),

		tablesCreated: r.Counter("table_created"),
		tablesDeleted: r.Counter("table_deleted"),
	}
	for i := 0; i < manifest.NumLevels; i++ {
		m.levelCompactions[i] = r.Counter(fmt.Sprintf("level%d_compactions", i))
		m.levelRead[i] = r.Counter(fmt.Sprintf("level%d_read_bytes", i))
		m.levelOverlap[i] = r.Counter(fmt.Sprintf("level%d_overlap_bytes", i))
		m.levelWrite[i] = r.Counter(fmt.Sprintf("level%d_write_bytes", i))
		m.levelWallNanos[i] = r.Counter(fmt.Sprintf("level%d_wall_nanos", i))
	}
	return m
}

// registerGauges wires the callback gauges: writer-queue depth, level
// shape, mapped table bytes, cache hit ratios and (when the executor
// publishes them) engine totals. Called once from Open, before the workers
// start.
func (db *DB) registerGauges() {
	r := db.reg
	r.GaugeFunc("write_queue_depth", func() float64 {
		return float64(db.WriteQueueDepth())
	})
	for i := 0; i < manifest.NumLevels; i++ {
		level := i
		r.GaugeFunc(fmt.Sprintf("level%d_files", level), func() float64 {
			return float64(db.vs.Current().NumFiles(level))
		})
		r.GaugeFunc(fmt.Sprintf("level%d_bytes", level), func() float64 {
			return float64(db.vs.Current().LevelBytes(level))
		})
	}
	// Mapped table pages count in the process's resident memory.
	r.GaugeFunc("table_mapped_bytes", func() float64 {
		return float64(db.tables.mappedBytes())
	})
	r.GaugeFunc("block_cache_bytes", func() float64 {
		return float64(db.blockCache.Size())
	})
	r.GaugeFunc("block_cache_hit_ratio", func() float64 {
		return hitRatio(db.blockCache.Stats())
	})
	r.GaugeFunc("table_cache_hit_ratio", func() float64 {
		return hitRatio(db.tables.stats())
	})
	db.sched.PublishMetrics(r)
	// Engine totals: channel 0 publishes under the plain engine_* names
	// (the historical single-executor layout); further channels would
	// collide on those names, so only the first publisher registers.
	for _, exec := range db.opts.DispatchConfig.Devices {
		if p, ok := exec.(obs.MetricsPublisher); ok {
			p.PublishMetrics(r)
			break
		}
	}
}

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// tableInfos converts one side of a compaction's inputs for an event.
func tableInfos(files []*manifest.FileMetadata, level int) []obs.TableInfo {
	out := make([]obs.TableInfo, 0, len(files))
	for _, f := range files {
		out = append(out, obs.TableInfo{Num: f.Num, Level: level, Size: int64(f.Size)})
	}
	return out
}
