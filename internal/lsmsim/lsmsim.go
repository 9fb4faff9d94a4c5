// Package lsmsim models the whole key-value store on a virtual clock for
// the paper's end-to-end experiments (Figs 10, 14, 15, 16; Tables VI and
// VIII). It reproduces the contention the paper measures — foreground
// writes vs background flush and compaction, write stalls, the FPGA
// offload freeing the host core — at data sizes (up to 1 TB) that would be
// impractical to materialize. The timing constants come from
// internal/model, an offloaded merge's kernel time from the engine itself
// (core.Config.MergeRun, on runs of the job's sizes); the compaction
// policy is the store's own (package manifest, DESIGN.md "Compaction policy").
package lsmsim

import (
	"time"

	"fcae/internal/core"
	"fcae/internal/dispatch"
	"fcae/internal/lsm"
	"fcae/internal/manifest"
	"fcae/internal/model"
	"fcae/internal/obs"
	"fcae/internal/sim"
)

// Backend selects the compaction execution engine.
type Backend int

const (
	// BackendCPU is the software baseline: original LevelDB with two host
	// cores (paper §VII-A: "LevelDB runs with 2 CPU cores").
	BackendCPU Backend = iota
	// BackendFCAE offloads merges to the engine: one host core plus the
	// FPGA card ("LevelDB-FCAE runs with 1 CPU core + FPGA card").
	BackendFCAE
)

func (b Backend) String() string {
	switch b {
	case BackendCPU:
		return "LevelDB"
	case BackendFCAE:
		return "LevelDB-FCAE"
	}
	return "unknown"
}

// Config parameterizes one simulated run; zero fields take the paper's
// defaults (Table IV).
type Config struct {
	KeyLen    int   // user key bytes (default 16)
	ValueLen  int   // value bytes (default 128)
	DataBytes int64 // total payload to write

	// Store is the modeled store, in the store's own options and resolved
	// by the store's own defaulting: simulating a store that just ran is
	// passing the Options it was opened with. The model reads the memtable
	// size, block size, level shape (ratio, L1 budget, table size, tiered
	// runs) and the L0 trigger / slowdown / stop ladder; with TieredRuns
	// > 0 merges have run-count fan-in, so engines with small N fall back
	// to software more often (§VII-C).
	Store lsm.Options

	Backend Backend
	Engine  core.Config // engine configuration for BackendFCAE

	// DiskCompression is the on-disk bytes per payload byte after snappy
	// (db_bench's synthetic values compress about 2:1; set 1.0 for
	// incompressible data). Affects table sizes, disk and PCIe traffic.
	DiskCompression float64

	// SerializeFlush forces flushes to wait for the running engine
	// compaction, disabling the paper's §VI-A overlap optimization
	// (ablation only; meaningful for BackendFCAE).
	SerializeFlush bool

	// Placement locates the engine for BackendFCAE: the paper's
	// PCIe-attached card (default), or embedded in the SSD controller —
	// the §VII-E near-storage direction (see nearstorage.go).
	Placement Placement

	// OverlapCPUFlush gives the CPU backend's flushes their own core
	// instead of LevelDB's single background thread (ablation only:
	// quantifies how much of the FCAE schedule benefit comes from
	// overlapping flushes with long software merges).
	OverlapCPUFlush bool
}

func (c Config) withDefaults() Config {
	if c.KeyLen <= 0 {
		c.KeyLen = 16
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 128
	}
	if c.DataBytes <= 0 {
		c.DataBytes = 1 << 30
	}
	c.Store = c.Store.WithDefaults()
	if c.Engine.N == 0 {
		c.Engine = core.MultiInputConfig()
	}
	if err := c.Engine.Validate(); err != nil {
		panic("lsmsim: " + err.Error())
	}
	if c.DiskCompression <= 0 {
		c.DiskCompression = 0.5
	}
	return c
}

// entryBytes is the on-disk footprint of one entry: key + trailer + value
// plus block format overheads (varint lengths, restarts, trailers).
func (c Config) entryBytes() int64 {
	overhead := 6 // varints + restart amortization
	perBlock := c.Store.BlockSize / (c.KeyLen + 8 + c.ValueLen + overhead)
	if perBlock < 1 {
		perBlock = 1
	}
	blockOverhead := (5 + 8) / perBlock // trailer + index entry share
	return int64(c.KeyLen + 8 + c.ValueLen + overhead + blockOverhead)
}

// diskEntryBytes is the post-compression on-disk footprint of one entry.
func (c Config) diskEntryBytes() int64 {
	n := int64(float64(c.entryBytes()) * c.DiskCompression)
	if n < int64(c.KeyLen+16) {
		n = int64(c.KeyLen + 16)
	}
	return n
}

// Result reports one simulated run.
type Result struct {
	Cfg        Config
	Elapsed    time.Duration
	Throughput float64 // payload MB/s, the paper's write-throughput metric

	Flushes       int64
	Compactions   int64 // merges; trivial moves are counted apart, as in lsm.Stats
	TrivialMoves  int64
	HWCompactions int64
	SWFallbacks   int64
	// LevelCompactions counts the merges by source level.
	LevelCompactions [manifest.NumLevels]int64

	BytesFlushed   int64
	CompactionOut  int64
	WriteAmp       float64
	KernelTime     time.Duration
	PCIeTime       time.Duration
	PCIeBytes      int64
	StallTime      time.Duration
	SlowdownWrites int64
	StopStalls     int64
	MaxLevel       int
}

// state is one live simulation.
type state struct {
	cfg       Config
	policy    manifest.Config // cfg.Store's level budgets and triggers
	pool      dispatch.Pool   // the offload admission limits the store would set
	sim       *sim.Sim
	entry     int64
	diskEntry int64

	remaining int64 // client operations still to run
	total     int64

	// Mixed-workload shaping (YCSB): writeFrac of operations are writes;
	// extraPerOp is the expected read-side cost per operation.
	writeFrac  float64
	extraPerOp time.Duration

	mem      int64
	immBytes int64 // immutable memtable being flushed (0 = none)
	// tree is the modeled tree in the form the store's policy scores. The
	// model keeps what the policy reads: Files and Runs at L0, Bytes below
	// it, and Runs below it in tiered mode.
	tree       manifest.Shape
	writerBusy bool
	writerWait bool // blocked on flush/compaction completion

	// hostBusyUntil is when the shared host core's background work (flush,
	// software-fallback compaction) finishes, for the FCAE backend where
	// the writer shares that core.
	hostBusyUntil time.Duration

	// bgBusy marks the LevelDB background thread (flush+compaction
	// serialized on the second core).
	bgBusy  bool
	bgQueue []bgTask

	compacting bool

	// pendingFlush holds a deferred flush when SerializeFlush is set.
	pendingFlush func()

	res Result
}

type bgTask struct {
	dur  time.Duration
	done func()
}

// newState starts a simulation of cfg, which must already be resolved.
func newState(cfg Config) *state {
	pool := dispatch.Pool{
		MaxRuns:     cfg.Engine.N,
		ImageBudget: cfg.Store.DispatchConfig.Tuning.DeviceImageBudget,
		ArenaBudget: cfg.Engine.ArenaInputBudget(),
	}
	if cfg.Backend == BackendFCAE {
		pool.Channels = 1 // the store's one engine instance; the model runs one merge at a time
	}
	return &state{
		cfg: cfg, policy: cfg.Store.ManifestConfig(), pool: pool, sim: &sim.Sim{},
		entry: cfg.entryBytes(), diskEntry: cfg.diskEntryBytes(), writeFrac: 1,
	}
}

const writerChunk = 2048 // entries simulated per writer event

// readDisturbFactor is the extra read cost while a compaction is running
// (device contention and cache churn).
const readDisturbFactor = 0.35

// The two constants of the overlap estimate (overlapBytes), fitted to four
// fills of the real store (EXPERIMENTS.md "Simulator vs store") and held to
// it by TestSimulatorTracksStore.
const (
	// overlapFactor scales the size-proportional next-level overlap of a
	// compaction. The model keeps every version of a key, so its levels are
	// fatter than the store's, and the store's pick takes the table that
	// overlaps the least of the next level.
	overlapFactor = 0.3
	// firstLap is the share of a level's first lap over the next one during
	// which its pushes land clear of what the lap has already left there.
	firstLap = 0.85
)

// RunFill simulates a db_bench-style random-load: a single client writing
// DataBytes of key-value payload as fast as the store admits, returning
// end-to-end statistics. This is the workload behind Table VI and Figs
// 10, 14 and 15.
func RunFill(cfg Config) Result {
	cfg = cfg.withDefaults()
	s := newState(cfg)
	s.total = cfg.DataBytes / int64(cfg.KeyLen+cfg.ValueLen)
	if s.total < 1 {
		s.total = 1
	}
	s.remaining = s.total
	s.res.Cfg = cfg

	s.writerStep()
	s.sim.Run()

	s.res.Elapsed = s.sim.Now()
	if s.res.Elapsed > 0 {
		s.res.Throughput = float64(cfg.DataBytes) / s.res.Elapsed.Seconds() / 1e6
	}
	if s.res.BytesFlushed > 0 {
		s.res.WriteAmp = float64(s.res.BytesFlushed+s.res.CompactionOut) / float64(s.res.BytesFlushed)
	}
	for level, ls := range s.tree {
		if ls.Bytes > 0 {
			s.res.MaxLevel = level
		}
	}
	return s.res
}

// writerStep runs the foreground client state machine.
func (s *state) writerStep() {
	if s.writerBusy || s.remaining <= 0 {
		return
	}
	// The store's write ladder decides for the whole chunk: a slowdown
	// charges every write in it 1 ms.
	slowed := false
	for room := false; !room; {
		memFull := s.mem >= s.cfg.Store.MemTableBytes
		switch s.cfg.Store.NextWriteStep(s.tree[0].Files, memFull, s.immBytes > 0, slowed) {
		case lsm.WriteProceed:
			room = true
		case lsm.WriteSlowDown:
			slowed = true
		case lsm.WriteRotate:
			s.immBytes = s.mem
			s.mem = 0
			s.scheduleFlush()
		case lsm.WriteWaitFlush, lsm.WriteWaitL0:
			// Wait for background progress.
			if !s.writerWait {
				s.writerWait = true
				s.res.StopStalls++
			}
			return
		}
	}

	n := s.remaining
	if n > writerChunk {
		n = writerChunk
	}
	if s.writeFrac > 0 {
		until := (s.cfg.Store.MemTableBytes - s.mem + s.entry - 1) / s.entry
		until = int64(float64(until) / s.writeFrac)
		if until < 1 {
			until = 1
		}
		if n > until {
			n = until
		}
	}

	writes := int64(float64(n) * s.writeFrac)
	dur := time.Duration(writes)*model.WriteTime(s.cfg.KeyLen+s.cfg.ValueLen) +
		time.Duration(n)*s.extraPerOp
	// Reads are disturbed while a compaction churns the device and the
	// caches; the slower software merges disturb for longer.
	if s.extraPerOp > 0 && s.compacting {
		dur += time.Duration(float64(n) * float64(s.extraPerOp) * readDisturbFactor)
	}
	// With one shared host core (FCAE), the writer runs at half speed
	// while background CPU work overlaps (processor sharing): only the
	// overlapping window is charged twice.
	if s.cfg.Backend == BackendFCAE && s.hostBusyUntil > s.sim.Now() {
		window := s.hostBusyUntil - s.sim.Now()
		if dur <= window {
			// Entirely inside the busy window: half speed throughout.
			dur *= 2
		} else {
			// Half speed during the window costs half the window extra.
			dur += window / 2
		}
	}
	if slowed {
		dur += time.Duration(n) * time.Millisecond
		s.res.StallTime += time.Duration(n) * time.Millisecond
		s.res.SlowdownWrites += n
	}

	s.writerBusy = true
	s.sim.After(dur, func() {
		s.writerBusy = false
		s.mem += writes * s.entry
		s.remaining -= n
		s.writerStep()
	})
}

// wakeWriter resumes a stalled client after background progress.
func (s *state) wakeWriter() {
	if s.writerWait {
		s.writerWait = false
		s.writerStep()
	}
}

// flushDuration models dumping one memtable to an L0 table: CPU encode
// plus the sequential device write.
func (s *state) flushDuration(memBytes int64) (cpu, disk time.Duration) {
	entries := memBytes / s.entry
	cpu = time.Duration(entries) * model.FlushPerEntry(s.cfg.KeyLen+8, s.cfg.ValueLen)
	disk = model.DiskWriteTime(entries * s.diskEntry)
	return cpu, disk
}

// scheduleFlush queues the immutable memtable flush on the appropriate
// core: the LevelDB background thread, or the shared host core for FCAE
// (where it overlaps with engine compactions, paper §VI-A).
func (s *state) scheduleFlush() {
	memBytes := s.immBytes
	diskBytes := memBytes / s.entry * s.diskEntry
	cpu, disk := s.flushDuration(memBytes)
	finish := func() {
		s.tree[0].Files++
		s.tree[0].Runs++
		s.tree[0].Bytes += uint64(diskBytes)
		s.immBytes = 0
		s.res.Flushes++
		s.res.BytesFlushed += diskBytes
		s.wakeWriter()
		s.maybeCompact()
	}
	if s.cfg.Backend == BackendCPU {
		if s.cfg.OverlapCPUFlush {
			// Ablation: flush on its own core, overlapping the merge.
			s.sim.After(cpu+disk, finish)
			return
		}
		s.enqueueBG(bgTask{dur: cpu + disk, done: finish})
		return
	}
	// Shared host core: the flush's CPU part runs at half speed against
	// the writer; the disk part overlaps freely.
	start := func() {
		dur := 2*cpu + disk
		s.noteHostBusy(dur)
		s.sim.After(dur, finish)
	}
	if s.cfg.SerializeFlush && s.compacting {
		// Ablation: the paper's "default schedule" pauses the flush while
		// a merge compaction runs (§VI-A).
		s.pendingFlush = start
		return
	}
	start()
}

// noteHostBusy extends the shared core's busy window.
func (s *state) noteHostBusy(d time.Duration) {
	if until := s.sim.Now() + d; until > s.hostBusyUntil {
		s.hostBusyUntil = until
	}
}

// enqueueBG serializes flush and compaction on LevelDB's single background
// thread; flushes are appended like compactions but the queue is short.
func (s *state) enqueueBG(t bgTask) {
	s.bgQueue = append(s.bgQueue, t)
	s.pumpBG()
}

func (s *state) pumpBG() {
	if s.bgBusy || len(s.bgQueue) == 0 {
		return
	}
	t := s.bgQueue[0]
	s.bgQueue = s.bgQueue[1:]
	s.bgBusy = true
	s.sim.After(t.dur, func() {
		s.bgBusy = false
		t.done()
		s.pumpBG()
	})
}

// compactionJob describes one picked compaction.
type compactionJob struct {
	level    int
	trivial  bool // a re-link: no bytes read or written
	inBytes  int64
	outBytes int64
	runs     int
	lower    float64 // the next level's share of inBytes, the last run's
	apply    func()
}

// overlapBytes estimates how many bytes of level a job overlaps whose
// inputs are in of the of bytes on their own level, i.e. span that share
// of the key space — the one quantity the store reads off its file
// boundaries and a scalar model has to guess. A lap pushes the inputs'
// level down once, of bytes; until level holds firstLap of that, the
// store's least-overlap pick still finds a table clear of everything the
// lap has pushed and there is none. After that it is overlapFactor of the
// proportional share plus one table, half of one cut off at each end of
// the input range.
func (s *state) overlapBytes(level int, in, of uint64) uint64 {
	if level >= len(s.tree) {
		return 0
	}
	all := s.tree[level].Bytes
	switch {
	case in >= of:
		return all
	case float64(all) < firstLap*float64(of):
		return 0
	}
	share := float64(all) * float64(in) / float64(of)
	return min(all, uint64(share*overlapFactor)+s.policy.MaxOutputFileBytes)
}

// pick asks the store's policy which level compacts next and sizes the job
// the store would build there.
func (s *state) pick() *compactionJob {
	level, out, ok := s.policy.PickLevel(s.tree, nil)
	if !ok {
		return nil
	}
	from := s.tree[level]
	if s.policy.TieredRuns > 0 {
		// A full-level lazy merge reads and writes only the level's own
		// bytes — the write-amplification saving of tiering — and lands as
		// one fresh run.
		n := int64(from.Bytes)
		return &compactionJob{level: level, inBytes: n, outBytes: n, runs: from.Runs, apply: func() {
			s.tree[level] = manifest.LevelShape{}
			s.tree[out].Bytes += from.Bytes
			s.tree[out].Runs++
		}}
	}
	// Leveled: the one table the least-overlap pick takes, or all of L0 — with
	// random keys every L0 file spans the key space, so the job takes them
	// all and rewrites all of L1 (paper §VII-C: "eight SSTables on Level 0
	// and Level 1 are involved ... in most cases").
	files, runs, bytes := 1, 1, min(s.policy.MaxOutputFileBytes, from.Bytes)
	if level == 0 {
		files, runs, bytes = from.Files, from.Runs, from.Bytes
	}
	overlap := s.overlapBytes(out, bytes, from.Bytes)
	next := 0 // output-level tables read; the policy only asks whether there are any
	if overlap > 0 {
		next = 1
	}
	n := int64(bytes + overlap)
	return &compactionJob{
		level:   level,
		trivial: s.policy.TrivialMove(files, next, s.overlapBytes(out+1, bytes, from.Bytes)),
		inBytes: n, outBytes: n, runs: runs + next, lower: float64(overlap) / float64(n),
		apply: func() {
			if level == 0 {
				s.tree[0] = manifest.LevelShape{}
			} else {
				s.tree[level].Bytes -= bytes
			}
			s.tree[out].Bytes += bytes
		},
	}
}

// maybeCompact starts the next compaction when one is due and none is
// running (the store runs one merge at a time). Trivial moves cost a
// manifest edit and no data movement, so they apply on the spot.
func (s *state) maybeCompact() {
	if s.compacting {
		return
	}
	job := s.pick()
	for ; job != nil && job.trivial; job = s.pick() {
		s.res.TrivialMoves++
		job.apply()
	}
	if job == nil {
		return
	}
	s.compacting = true
	s.res.Compactions++
	s.res.LevelCompactions[job.level]++
	s.res.CompactionOut += job.outBytes

	pairs := job.inBytes / s.diskEntry

	finish := func() {
		s.compacting = false
		job.apply()
		if s.pendingFlush != nil {
			start := s.pendingFlush
			s.pendingFlush = nil
			start()
		}
		s.wakeWriter()
		s.maybeCompact()
	}

	if dispatch.Admit(s.pool, job.runs, job.inBytes) == obs.RouteNone {
		// Offloaded merge: data staging + kernel; the host core stays
		// free for flushes (paper §VI-A).
		st, err := s.cfg.Engine.MergeRun(job.runs, s.cfg.KeyLen, s.cfg.ValueLen, job.lower)
		if err != nil {
			panic("lsmsim: " + err.Error()) // the engine is valid and admitted the runs
		}
		kernel := st.PairsTime(pairs)
		total, transfer := s.compactionDeviceTime(job.inBytes, job.outBytes, kernel)
		s.res.HWCompactions++
		s.res.KernelTime += kernel
		s.res.PCIeTime += transfer
		s.res.PCIeBytes += job.inBytes + job.outBytes
		s.sim.After(total, finish)
		return
	}
	// Software merge on the CPU.
	disk := model.DiskReadTime(job.inBytes) + model.DiskWriteTime(job.outBytes)
	cpu := time.Duration(pairs) * model.CPULivePairTime(s.cfg.KeyLen+8, s.cfg.ValueLen, job.runs)
	dur := cpu + disk
	if s.cfg.Backend == BackendCPU {
		s.enqueueBG(bgTask{dur: dur, done: finish})
		return
	}
	// FCAE fallback: runs on the shared host core at half speed.
	s.res.SWFallbacks++
	dur = 2*cpu + disk
	s.noteHostBusy(dur)
	s.sim.After(dur, finish)
}
