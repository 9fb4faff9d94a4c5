// Package lsm implements the LSM-tree key-value store the FCAE engine
// integrates with: a LevelDB-like database with a WAL, skiplist memtables,
// leveled SSTables and background flush/compaction workers. The compaction
// execution backend is pluggable (paper Fig 1): the software executor is
// the CPU baseline, the FCAE executor offloads merges to the simulated
// FPGA card.
package lsm

import (
	"fmt"

	"fcae/internal/compaction"
	"fcae/internal/dispatch"
	"fcae/internal/manifest"
	"fcae/internal/obs"
	"fcae/internal/sstable"
)

// DispatchConfig groups everything that feeds the offload scheduler and
// its shared worker pool: the device channels, the pool size, fault
// injection and the scheduler tuning.
type DispatchConfig struct {
	// Devices are the scheduler's device channels, one executor instance
	// per simulated compaction unit (instances must not be shared between
	// channels). Empty means every merge runs on the CPU lane.
	Devices []compaction.Executor
	// Workers sizes the shared background worker pool that drains both
	// flushes and compactions (flush claims the highest priority;
	// with more than one worker, one slot is always kept free for a
	// flush). Default 2 — one flush-capable worker plus one compactor.
	Workers int
	// FaultInjector, when non-nil, injects device faults into every
	// device-channel attempt (see package dispatch). Requires at least
	// one device channel.
	FaultInjector dispatch.FaultInjector
	// Tuning bounds the scheduler's device deadline, retry and budget
	// policy; the zero value selects the dispatch defaults.
	Tuning dispatch.Tuning
}

// Validate rejects contradictory or nonsensical dispatch settings.
func (c DispatchConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("lsm: invalid DispatchConfig: Workers is negative (%d)", c.Workers)
	}
	for i, d := range c.Devices {
		if d == nil {
			return fmt.Errorf("lsm: invalid DispatchConfig: device channel %d is nil", i)
		}
	}
	if c.FaultInjector != nil && len(c.Devices) == 0 {
		return fmt.Errorf("lsm: invalid DispatchConfig: FaultInjector set but no device executors are configured; there is no device to fault")
	}
	if err := c.Tuning.Validate(); err != nil {
		return fmt.Errorf("lsm: invalid DispatchConfig: %w", err)
	}
	return nil
}

// Options configure a DB. The zero value plus a directory is usable; the
// defaults mirror the paper's LevelDB settings (Table IV).
type Options struct {
	// MemTableBytes is the write buffer size before a flush is scheduled.
	MemTableBytes int64
	// BlockSize is the SSTable data block size (Table IV: 4 KiB default,
	// swept 2 KiB - 1 MiB in Fig 15c).
	BlockSize int
	// DisableCompression turns per-block snappy compression off.
	DisableCompression bool
	// BlockCacheBytes bounds the shared block cache (default 8 MiB).
	BlockCacheBytes int64
	// LevelRatio is Size(L_{i+1})/Size(L_i) (Table IV: default 10,
	// range [4,16]).
	LevelRatio int
	// BaseLevelBytes is L1's byte budget (default 10 MiB).
	BaseLevelBytes uint64
	// MaxOutputFileBytes caps compaction output tables (default 2 MiB,
	// the paper's SSTable threshold).
	MaxOutputFileBytes uint64
	// L0CompactionTrigger schedules an L0 merge at this file count.
	L0CompactionTrigger int
	// TieredRuns, when > 0, switches levels >= 1 to tiered (lazy)
	// compaction: up to TieredRuns overlapping sorted runs accumulate per
	// level before a full-level merge pushes one combined run down. This
	// is the write-optimized scheme (SifrDB, PebblesDB) whose multi-run
	// merges motivate the paper's 9-input engine (§VII-C).
	TieredRuns int
	// L0SlowdownTrigger throttles writes at this L0 file count.
	L0SlowdownTrigger int
	// L0StopTrigger blocks writes at this L0 file count.
	L0StopTrigger int
	// DispatchConfig groups the offload scheduler's configuration: device
	// channels (the one way to name a compaction device; none means the
	// software compactor), the shared flush/compaction worker pool size,
	// fault injection and scheduler tuning. Jobs whose fan-in exceeds a
	// device's MaxRuns fall back to software, the paper's §VI-A rule.
	// Zero-value fields select defaults.
	DispatchConfig DispatchConfig
	// SyncWrites fsyncs the WAL on every commit.
	SyncWrites bool
	// EventListener, when non-nil, receives store lifecycle events (see
	// package obs for the delivery contract: sequenced under the store
	// mutex, delivered strictly outside it).
	EventListener obs.EventListener
}

// Validate rejects contradictory or nonsensical settings with a
// descriptive error. Open calls it before applying defaults, so a zero
// Options value always validates; only explicit misconfiguration fails.
func (o Options) Validate() error {
	neg := func(name string, v int64) error {
		return fmt.Errorf("lsm: invalid Options: %s is negative (%d)", name, v)
	}
	switch {
	case o.MemTableBytes < 0:
		return neg("MemTableBytes", o.MemTableBytes)
	case o.BlockSize < 0:
		return neg("BlockSize", int64(o.BlockSize))
	case o.BlockCacheBytes < 0:
		return neg("BlockCacheBytes", o.BlockCacheBytes)
	case o.LevelRatio < 0:
		return neg("LevelRatio", int64(o.LevelRatio))
	case o.L0CompactionTrigger < 0:
		return neg("L0CompactionTrigger", int64(o.L0CompactionTrigger))
	case o.L0SlowdownTrigger < 0:
		return neg("L0SlowdownTrigger", int64(o.L0SlowdownTrigger))
	case o.L0StopTrigger < 0:
		return neg("L0StopTrigger", int64(o.L0StopTrigger))
	case o.TieredRuns < 0:
		return neg("TieredRuns", int64(o.TieredRuns))
	}
	if err := o.DispatchConfig.Validate(); err != nil {
		return fmt.Errorf("lsm: invalid Options: %w", err)
	}
	// Contradictions are checked on the resolved values so that setting
	// only one trigger cannot silently invert the throttle ladder against
	// a defaulted neighbor.
	r := o.WithDefaults()
	if r.L0SlowdownTrigger > r.L0StopTrigger {
		return fmt.Errorf("lsm: invalid Options: L0SlowdownTrigger (%d) exceeds L0StopTrigger (%d); writes would stop before they slow down",
			r.L0SlowdownTrigger, r.L0StopTrigger)
	}
	if r.L0CompactionTrigger > r.L0StopTrigger {
		return fmt.Errorf("lsm: invalid Options: L0CompactionTrigger (%d) exceeds L0StopTrigger (%d); writes would stop before a compaction is ever scheduled",
			r.L0CompactionTrigger, r.L0StopTrigger)
	}
	return nil
}

// WithDefaults resolves unset fields to the paper's settings (Table IV).
// Each default is written once, in the package that owns the parameter:
// the level shape and the L0 compaction trigger in manifest.Config, the
// block size in sstable.Options, the memtable, cache, write
// throttle and worker pool here. The simulator (package lsmsim) resolves
// its modeled store through this same method.
func (o Options) WithDefaults() Options {
	if o.MemTableBytes <= 0 {
		o.MemTableBytes = 4 << 20
	}
	o.BlockSize = sstable.Options{BlockSize: o.BlockSize}.WithDefaults().BlockSize
	if o.BlockCacheBytes <= 0 {
		o.BlockCacheBytes = 8 << 20
	}
	m := o.ManifestConfig().WithDefaults()
	o.LevelRatio, o.BaseLevelBytes = m.LevelRatio, m.BaseLevelBytes
	o.MaxOutputFileBytes, o.L0CompactionTrigger = m.MaxOutputFileBytes, m.L0CompactionTrigger
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = 8
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = 12
	}
	if o.DispatchConfig.Workers == 0 {
		o.DispatchConfig.Workers = 2
	}
	return o
}

// WriteStep is the next rung of the write-admission ladder, LevelDB's
// MakeRoomForWrite (paper §I: "system jam may occur, as flushing new data
// to disk is hindered by frequent compaction").
type WriteStep int

const (
	// WriteProceed: the memtable has room; the write goes ahead.
	WriteProceed WriteStep = iota
	// WriteSlowDown: L0 has reached L0SlowdownTrigger; the write sleeps
	// 1 ms, once, then asks again (obs.StallL0Slowdown).
	WriteSlowDown
	// WriteRotate: the memtable is full and nothing holds back swapping in
	// a fresh one and flushing the old; then ask again.
	WriteRotate
	// WriteWaitFlush: the memtable is full and the previous one is still
	// flushing; wait for background progress (obs.StallMemTableFull).
	WriteWaitFlush
	// WriteWaitL0: the memtable is full and L0 has reached L0StopTrigger;
	// wait for background progress (obs.StallL0Stop).
	WriteWaitL0
)

// NextWriteStep is the one statement of the ladder, called by the store
// before every write group and by the simulator (package lsmsim) before
// every chunk of writes. l0Files is the L0 file count, memFull whether the
// memtable has reached MemTableBytes, flushPending whether the previous
// memtable is still flushing, slowed whether this write already slept.
// The order is LevelDB's: slow down once, then the room check, so L0's
// stop trigger holds a write back only when the memtable is full.
func (o Options) NextWriteStep(l0Files int, memFull, flushPending, slowed bool) WriteStep {
	switch {
	case !slowed && l0Files >= o.L0SlowdownTrigger:
		return WriteSlowDown
	case !memFull:
		return WriteProceed
	case flushPending:
		return WriteWaitFlush
	case l0Files >= o.L0StopTrigger:
		return WriteWaitL0
	}
	return WriteRotate
}

// tableOpts maps resolved options onto the table format's; the restart
// interval is the format's own default, and every table carries a bloom
// filter of 10 bits per key.
func (o Options) tableOpts() sstable.Options {
	compression := sstable.SnappyCompression
	if o.DisableCompression {
		compression = sstable.NoCompression
	}
	return sstable.Options{
		BlockSize:        o.BlockSize,
		Compression:      compression,
		FilterBitsPerKey: 10,
	}.WithDefaults()
}

// ManifestConfig is the level-shaping subset of the options.
func (o Options) ManifestConfig() manifest.Config {
	return manifest.Config{
		LevelRatio:          o.LevelRatio,
		BaseLevelBytes:      o.BaseLevelBytes,
		L0CompactionTrigger: o.L0CompactionTrigger,
		MaxOutputFileBytes:  o.MaxOutputFileBytes,
		TieredRuns:          o.TieredRuns,
	}
}
