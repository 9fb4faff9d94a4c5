package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fcae/internal/cache"
	"fcae/internal/crc"
	"fcae/internal/dispatch"
	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/memtable"
	"fcae/internal/obs"
	"fcae/internal/vfs"
	"fcae/internal/wal"
)

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("lsm: not found")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("lsm: database closed")

// DB is an LSM-tree key-value store. All methods are safe for concurrent
// use.
type DB struct {
	fs         vfs.FS
	dir        string
	opts       Options
	vs         *manifest.VersionSet
	blockCache *cache.Cache
	tables     *tableCache
	listener   obs.EventListener // nil when no listener is configured
	reg        *obs.Registry
	met        dbMetrics
	// sched routes compaction merges between the device channel pool and
	// the CPU lane (package dispatch); immutable after Open.
	sched *dispatch.Scheduler
	// poolSize is the number of shared flush/compaction pool workers
	// (DispatchConfig.Workers); immutable after Open.
	poolSize int
	// wg joins every shared pool worker; Close waits on it after the
	// workers observe the closed flag.
	wg sync.WaitGroup
	// evMu serializes event delivery to the listener. Lock order is
	// strictly evMu -> mu (flushEvents); it is never acquired with mu held.
	//
	//fcae:lock-order lsm.DB.evMu -> lsm.DB.mu
	evMu sync.Mutex
	// queued mirrors len(writers) so WriteQueueDepth reads it without
	// taking mu.
	queued atomic.Int64

	mu        sync.Mutex
	mem       *memtable.MemTable
	imm       *memtable.MemTable
	wal       *wal.Writer
	walFile   vfs.File
	walNum    uint64
	seq       uint64
	snapshots map[uint64]int
	bgCond    *sync.Cond
	writeCond *sync.Cond
	writers   []*writer
	bgErr     error
	closed    bool
	memSeed   int64

	// groupBuf is where a leader builds a multi-writer group record. One
	// buffer serves every commit: the group stays at the queue front until
	// its leader pops it, so no second leader builds while the first still
	// reads it, and wal.Append and memtable.Add both copy.
	groupBuf []byte

	committing bool // a group leader is writing the WAL unlocked
	flushBusy  bool
	compacting int               // compaction workers currently running a job
	manual     *manualCompaction // nil when no manual compaction is requested
	// busyLevels claims level ranges for in-flight compactions: a worker
	// marks its job's input and output levels before releasing mu, so
	// concurrent workers never pick overlapping file sets.
	busyLevels [manifest.NumLevels]bool
	// pendingOutputs holds table numbers being written by an in-flight
	// flush or compaction so the obsolete-file sweep does not reap them
	// before their version edit lands.
	pendingOutputs map[uint64]bool
	// holdDeletions suspends the obsolete-file sweep entirely while an
	// external backup copies the directory (DisableFileDeletions).
	holdDeletions int
	// pendingEvents are delivery closures queued under mu, drained by
	// flushEvents outside it (see events.go).
	pendingEvents []func(obs.EventListener)
	jobSeq        uint64 // flush/compaction job id allocator
}

// Stats aggregates operational counters. It is a view over the metrics
// registry (see DB.Stats), not a second set of books.
type Stats struct {
	Writes          int64
	BytesWritten    int64
	GroupCommits    int64 // WAL records written (leaders)
	GroupedWrites   int64 // Write calls committed, including followers
	Flushes         int64
	FlushBytes      int64
	Compactions     int64
	HWCompactions   int64 // executed on the FCAE backend
	SWFallbacks     int64 // exceeded the engine's N and ran in software
	TrivialMoves    int64
	CompactionRead  int64
	CompactionWrite int64
	KernelTime      time.Duration // modeled engine time
	TransferTime    time.Duration // modeled PCIe time
	StallTime       time.Duration // foreground write throttling
	StallWrites     int64

	// Levels breaks compaction work down by source level (flushes count
	// as level -1 -> 0 and are reported separately above).
	Levels [manifest.NumLevels]LevelStat
}

// LevelStat is per-level compaction accounting.
type LevelStat struct {
	Compactions  int64
	BytesRead    int64
	BytesWritten int64
	Wall         time.Duration
}

func walCRC(t byte, payload []byte) uint32 {
	return crc.Extend(crc.Value([]byte{t}), payload)
}

// Open opens (creating if necessary) the database in dir. Contradictory
// options are rejected with a descriptive error (see Options.Validate).
func Open(dir string, opts Options) (*DB, error) { return open(vfs.Default, dir, opts) }

func open(fsys vfs.FS, dir string, opts Options) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	vs, err := manifest.Open(fsys, dir, opts.ManifestConfig())
	if err != nil {
		return nil, err
	}
	bc := cache.New(opts.BlockCacheBytes)
	reg := obs.NewRegistry()
	dcfg := opts.DispatchConfig
	sched, err := dispatch.New(dispatch.Config{
		Devices:  dcfg.Devices,
		Injector: dcfg.FaultInjector,
		Tuning:   dcfg.Tuning,
	})
	if err != nil {
		_ = vs.Close()
		return nil, err
	}
	db := &DB{
		fs:             fsys,
		dir:            dir,
		opts:           opts,
		vs:             vs,
		blockCache:     bc,
		tables:         newTableCache(fsys, dir, opts.tableOpts(), bc, 500),
		listener:       opts.EventListener,
		reg:            reg,
		met:            newDBMetrics(reg),
		sched:          sched,
		poolSize:       dcfg.Workers,
		snapshots:      make(map[uint64]int),
		seq:            vs.LastSeq(),
		memSeed:        skiplistSeed,
		pendingOutputs: make(map[uint64]bool),
	}
	db.registerGauges()
	db.bgCond = sync.NewCond(&db.mu)
	db.writeCond = sync.NewCond(&db.mu)

	// Recovery is single-threaded, but the helpers it uses follow the
	// *Locked convention, so hold the mutex until the workers start.
	db.mu.Lock()
	db.mem = memtable.New(db.nextMemSeedLocked())

	fail := func(err error) (*DB, error) {
		db.mu.Unlock()
		_ = db.sched.Close()
		_ = vs.Close()
		return nil, err
	}
	if err := db.recoverWALs(); err != nil {
		return fail(err)
	}
	if err := db.newWALLocked(); err != nil {
		return fail(err)
	}
	// Flush recovered entries so the replayed logs can be dropped.
	if !db.mem.Empty() {
		if err := db.flushMem(db.mem, db.nextJobIDLocked()); err != nil {
			return fail(err)
		}
		db.mem = memtable.New(db.nextMemSeedLocked())
	}
	db.deleteObsoleteFilesLocked()
	db.mu.Unlock()
	db.flushEvents() // recovery flush + obsolete-file events

	for i := 0; i < db.poolSize; i++ {
		db.wg.Add(1)
		go db.poolWorker()
	}
	return db, nil
}

// skiplistSeed seeds the first memtable's skiplist; each later memtable
// takes the next integer, so a store's memtable shapes are reproducible.
const skiplistSeed = 0xfcae

func (db *DB) nextMemSeedLocked() int64 {
	db.memSeed++
	return db.memSeed
}

// recoverWALs replays logs newer than the manifest's durable point.
func (db *DB) recoverWALs() error {
	entries, err := db.fs.ReadDir(db.dir)
	if err != nil {
		return err
	}
	var nums []uint64
	minLog := db.vs.LogNum()
	for _, e := range entries {
		if kind, num := parseFileName(e.Name()); kind == kindWAL && num >= minLog {
			nums = append(nums, num)
		}
	}
	slices.Sort(nums)
	for _, num := range nums {
		if err := db.replayWALLocked(num); err != nil {
			return fmt.Errorf("lsm: recover %06d.log: %w", num, err)
		}
	}
	return nil
}

// replayWALLocked applies log num to the memtable. Damage with no intact
// record after it is what a crash leaves, in any log (a retiring log is
// not synced), so recovery stops there; any other damage fails recovery
// rather than drop the whole records behind it.
func (db *DB) replayWALLocked(num uint64) error {
	f, err := db.fs.Open(walPath(db.dir, num))
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	r := wal.NewReader(f, walCRC)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, wal.ErrCorrupt) {
			if tail, terr := r.DamageIsTail(); terr != nil || tail {
				return terr
			}
			return fmt.Errorf("%w (Repair salvages the records before it)", err)
		}
		if err != nil {
			return err
		}
		applyErr := batchIterate(rec, func(seq uint64, kind keys.Kind, key, value []byte) error {
			db.mem.Add(seq, kind, key, value)
			if seq > db.seq {
				db.seq = seq
			}
			return nil
		})
		if applyErr != nil {
			return applyErr
		}
	}
}

// newWALLocked rotates to a fresh log file.
func (db *DB) newWALLocked() error {
	num := db.vs.AllocFileNum()
	f, err := db.fs.Create(walPath(db.dir, num))
	if err != nil {
		return err
	}
	if db.walFile != nil {
		// The retiring log's records are already applied to the memtable;
		// its fate no longer affects durability.
		_ = db.walFile.Close()
	}
	db.walFile = f
	db.wal = wal.NewWriter(f, walCRC)
	db.walNum = num
	return nil
}

// Put sets key to value.
func (db *DB) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return db.Write(&b)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return db.Write(&b)
}

// writer is one queued Write call awaiting group commit.
type writer struct {
	batch *Batch
	err   error
	done  bool
}

// Group-commit bounds: a leader coalesces at most this many followers /
// bytes into one WAL record, trading sync count against commit latency.
const (
	maxGroupWriters = 128
	maxGroupBytes   = 1 << 20
)

// Write commits a batch atomically. Concurrent Write calls coalesce: the
// front writer becomes the group leader, appends one combined WAL record
// (and syncs once, if configured) on behalf of everyone queued behind it.
func (db *DB) Write(b *Batch) error {
	err := db.write(b)
	// Deliver anything this write queued (stall begin/end) outside db.mu.
	db.flushEvents()
	return err
}

func (db *DB) write(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	w := &writer{batch: b}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.writers = append(db.writers, w)
	db.queued.Add(1)
	for !w.done && db.writers[0] != w {
		db.writeCond.Wait()
	}
	if w.done {
		// A previous leader committed this batch.
		return w.err
	}

	// Leader path.
	if err := db.makeRoomForWrite(); err != nil {
		db.popWritersLocked(1)
		w.done, w.err = true, err
		db.writeCond.Broadcast()
		return err
	}
	group := db.peekGroupLocked(maxGroupWriters, maxGroupBytes)

	total := 0
	for _, g := range group {
		total += g.batch.Len()
	}
	base := db.seq + 1
	var rep []byte
	if len(group) == 1 {
		rep = group[0].batch.seal(base)
	} else {
		rep = append(db.groupBuf[:0], make([]byte, batchHeaderSize)...)
		for _, g := range group {
			rep = append(rep, g.batch.seal(0)[batchHeaderSize:]...)
		}
		binary.LittleEndian.PutUint64(rep[0:8], base)
		binary.LittleEndian.PutUint32(rep[8:12], uint32(total))
		// A group ends with the batch that crosses maxGroupBytes, so one
		// huge batch can grow rep well past it; do not keep that.
		if cap(rep) <= 2*maxGroupBytes {
			db.groupBuf = rep
		}
	}

	// The slow part — WAL append, optional fsync, memtable insert — runs
	// with the mutex RELEASED so more writers can queue behind this group
	// (that queueing is what makes the next group larger). The committing
	// flag keeps WAL rotation and Close away; the group stays at the
	// queue front so no second leader can start; sequences are published
	// only after the apply, so readers never see a half-applied group.
	mem := db.mem
	db.committing = true
	db.mu.Unlock()
	err := db.wal.Append(rep)
	if err == nil && db.opts.SyncWrites {
		err = db.walFile.Sync()
	}
	if err == nil {
		err = batchIterate(rep, func(seq uint64, kind keys.Kind, key, value []byte) error {
			mem.Add(seq, kind, key, value)
			return nil
		})
	}
	db.mu.Lock()
	db.committing = false

	if err != nil {
		db.bgErr = err
	} else {
		db.seq = base + uint64(total) - 1
		db.met.writes.Add(int64(total))
		db.met.writeBytes.Add(int64(len(rep)))
		db.met.groupCommits.Inc()
		db.met.groupedWrites.Add(int64(len(group)))
	}
	db.popWritersLocked(len(group))
	for _, g := range group {
		g.done, g.err = true, err
	}
	db.writeCond.Broadcast()
	db.bgCond.Broadcast() // wake anything waiting out the commit window
	return err
}

// peekGroupLocked returns up to maxN front writers bounded by maxBytes of
// payload, leaving them queued (the group is popped after the commit).
func (db *DB) peekGroupLocked(maxN, maxBytes int) []*writer {
	n := 0
	bytes := 0
	for n < len(db.writers) && n < maxN {
		bytes += db.writers[n].batch.Size()
		n++
		if bytes >= maxBytes {
			break
		}
	}
	return append([]*writer(nil), db.writers[:n]...)
}

// popWritersLocked removes the n front writers from the queue.
func (db *DB) popWritersLocked(n int) {
	db.writers = append(db.writers[:0:0], db.writers[n:]...)
	db.queued.Add(int64(-n))
}

// makeRoomForWrite carries out the steps of the write-admission ladder
// (Options.NextWriteStep): sleep, wait, rotate memtables, or return.
func (db *DB) makeRoomForWrite() error {
	slept := false
	for {
		if db.bgErr != nil {
			return db.bgErr
		}
		if db.closed {
			return ErrClosed
		}
		memFull := db.mem.ApproximateSize() >= db.opts.MemTableBytes
		switch db.opts.NextWriteStep(db.vs.Current().NumFiles(0), memFull, db.imm != nil, slept) {
		case WriteProceed:
			return nil
		case WriteSlowDown:
			db.queueEventLocked(func(l obs.EventListener) {
				l.WriteStallBegin(obs.WriteStallBeginEvent{Reason: obs.StallL0Slowdown})
			})
			db.mu.Unlock()
			time.Sleep(time.Millisecond)
			db.mu.Lock()
			db.recordStallLocked(obs.StallL0Slowdown, time.Millisecond)
			slept = true
		case WriteWaitFlush:
			db.waitStalledLocked(obs.StallMemTableFull)
		case WriteWaitL0:
			db.waitStalledLocked(obs.StallL0Stop)
		case WriteRotate:
			// Switch to a fresh memtable and WAL.
			if err := db.newWALLocked(); err != nil {
				db.bgErr = err
				return err
			}
			db.imm = db.mem
			db.mem = memtable.New(db.nextMemSeedLocked())
			db.bgCond.Broadcast()
		}
	}
}

// waitStalledLocked blocks the writer on the background condition. The
// stall events are queued, not delivered, because unlocking here could
// miss the only wakeup broadcast; the background workers (and this write's
// own trailing drain) deliver them.
func (db *DB) waitStalledLocked(reason obs.StallReason) {
	db.queueEventLocked(func(l obs.EventListener) {
		l.WriteStallBegin(obs.WriteStallBeginEvent{Reason: reason})
	})
	start := time.Now()
	db.bgCond.Wait()
	db.recordStallLocked(reason, time.Since(start))
}

// recordStallLocked folds one stall into the metrics and the event queue.
// Callers hold db.mu.
func (db *DB) recordStallLocked(reason obs.StallReason, d time.Duration) {
	db.met.stallCount.Inc()
	db.met.stallNanos.Add(d.Nanoseconds())
	db.met.stallWait.ObserveDuration(d)
	db.queueEventLocked(func(l obs.EventListener) {
		l.WriteStallEnd(obs.WriteStallEndEvent{Reason: reason, Duration: d})
	})
}

// readState is everything a read must hold still: the two memtables and a
// referenced version, which keeps every table it names on disk.
type readState struct {
	mem, imm *memtable.MemTable
	version  *manifest.Version
	seq      uint64 // newest committed sequence at acquire
}

// acquire captures the read state under one db.mu acquisition. It is the
// only way a read obtains a version; every acquire is paired with release.
func (db *DB) acquire() (readState, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return readState{}, ErrClosed
	}
	return readState{mem: db.mem, imm: db.imm, version: db.vs.Ref(), seq: db.seq}, nil
}

// release drops rs's version reference. The last reader of a superseded
// version is the one that makes its tables obsolete, so it runs the sweep
// (and delivers the TableDeleted events) that the flush or compaction
// which installed the successor had to leave undone.
func (db *DB) release(rs readState) {
	if !db.vs.Unref(rs.version) {
		return
	}
	db.mu.Lock()
	if !db.closed {
		db.deleteObsoleteFilesLocked()
	}
	db.mu.Unlock()
	db.flushEvents()
}

// Get returns the value for key, or ErrNotFound. The returned slice is a
// copy: it is the caller's to keep and to write.
func (db *DB) Get(key []byte) ([]byte, error) {
	rs, err := db.acquire()
	if err != nil {
		return nil, err
	}
	defer db.release(rs)
	return db.getAt(key, rs.seq, rs)
}

// getAt reads key as of seq from the acquired state. Whatever it returns
// is a copy: a memtable hands out its own memory, which the caller must
// neither write nor, by holding on to it, keep alive.
func (db *DB) getAt(key []byte, seq uint64, rs readState) ([]byte, error) {
	if val, del, found := rs.mem.Get(key, seq); found {
		if del {
			return nil, ErrNotFound
		}
		return append([]byte(nil), val...), nil
	}
	if rs.imm != nil {
		if val, del, found := rs.imm.Get(key, seq); found {
			if del {
				return nil, ErrNotFound
			}
			return append([]byte(nil), val...), nil
		}
	}
	var (
		result []byte
		found  bool
		del    bool
		ferr   error
		// reads counts the tables whose blocks were read, filtered the
		// ones whose filter rejected the key without a read.
		reads    int
		filtered int64
	)
	rs.version.ForEachOverlapping(key, func(_ int, f *manifest.FileMetadata) bool {
		h, err := db.tables.get(f.Num)
		if err != nil {
			ferr = err
			return false
		}
		val, d, ok, consulted, err := h.reader.Lookup(key, seq)
		db.tables.release(h)
		if err != nil {
			ferr = err
			return false
		}
		if !consulted {
			filtered++
			return true
		}
		reads++
		if ok {
			result, del, found = val, d, true
			return false
		}
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	if filtered > 0 {
		db.met.filterNegatives.Add(filtered)
	}
	misses := reads
	if found {
		misses--
	}
	if misses > 0 {
		db.met.blockMisses.Add(int64(misses))
	}
	if !found || del {
		return nil, ErrNotFound
	}
	return result, nil
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	_, err := db.Get(key)
	if err == ErrNotFound {
		return false, nil
	}
	return err == nil, err
}

// Stats returns the operational counters, read from the registry
// instruments that Metrics also reports. Every one of them is incremented
// with db.mu held, so the snapshot taken under it is consistent.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.statsLocked()
}

func (db *DB) statsLocked() Stats {
	m := &db.met
	st := Stats{
		Writes:          m.writes.Value(),
		BytesWritten:    m.writeBytes.Value(),
		GroupCommits:    m.groupCommits.Value(),
		GroupedWrites:   m.groupedWrites.Value(),
		Flushes:         m.flushes.Value(),
		FlushBytes:      m.flushBytes.Value(),
		Compactions:     m.compactions.Value(),
		HWCompactions:   m.hwCompactions.Value(),
		SWFallbacks:     m.swFallbacks.Value(),
		TrivialMoves:    m.trivialMoves.Value(),
		CompactionRead:  m.compactionRead.Value(),
		CompactionWrite: m.compactionWrite.Value(),
		KernelTime:      time.Duration(m.kernelNanos.Value()),
		TransferTime:    time.Duration(m.transferNanos.Value()),
		StallTime:       time.Duration(m.stallNanos.Value()),
		StallWrites:     m.stallCount.Value(),
	}
	for i := range st.Levels {
		st.Levels[i] = LevelStat{
			Compactions:  m.levelCompactions[i].Value(),
			BytesRead:    m.levelRead[i].Value(),
			BytesWritten: m.levelWrite[i].Value(),
			Wall:         time.Duration(m.levelWallNanos[i].Value()),
		}
	}
	return st
}

// WriteQueueDepth returns the number of Write calls inside the writer
// queue: the group being committed plus everyone waiting behind it. It
// does not take the store mutex.
func (db *DB) WriteQueueDepth() int { return int(db.queued.Load()) }

// DispatchStats returns a snapshot of the offload scheduler's routing
// counters (per-lane jobs, faults, retries, fallback reasons).
func (db *DB) DispatchStats() dispatch.Stats {
	return db.sched.Stats()
}

// LevelFiles returns the file count per level.
func (db *DB) LevelFiles() [manifest.NumLevels]int {
	v := db.vs.Current()
	var out [manifest.NumLevels]int
	for i := range out {
		out[i] = v.NumFiles(i)
	}
	return out
}

// LevelBytes returns the byte total per level.
func (db *DB) LevelBytes() [manifest.NumLevels]uint64 {
	v := db.vs.Current()
	var out [manifest.NumLevels]uint64
	for i := range out {
		out[i] = v.LevelBytes(i)
	}
	return out
}

// Close flushes state and stops background work. Pending memtable contents
// remain recoverable from the WAL.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.bgCond.Broadcast()
	for db.flushBusy || db.compacting > 0 || db.committing {
		db.bgCond.Wait()
	}
	err := db.bgErr
	if db.walFile != nil {
		if e := db.walFile.Sync(); e != nil && err == nil {
			err = e
		}
		if e := db.walFile.Close(); e != nil && err == nil {
			err = e
		}
		db.walFile = nil
	}
	db.mu.Unlock()
	// Join the flush and compaction workers before tearing down the state
	// they use; the busy counters above only prove no job is mid-flight.
	db.wg.Wait()
	if e := db.sched.Close(); e != nil && err == nil {
		err = e
	}
	// The workers have exited; drain any events they queued on the way out
	// so Close guarantees full delivery.
	db.flushEvents()
	db.tables.close()
	if e := db.vs.Close(); e != nil && err == nil {
		err = e
	}
	return err
}
