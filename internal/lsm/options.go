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
	// Tuning bounds the scheduler's queueing, priority-aging, retry and
	// budget policy; the zero value selects the dispatch defaults.
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
	// RestartInterval for data blocks.
	RestartInterval int
	// DisableCompression turns per-block snappy compression off.
	DisableCompression bool
	// FilterBitsPerKey attaches bloom filters to tables (10 by default,
	// 0 < disables via DisableFilter).
	FilterBitsPerKey int
	// DisableFilter turns bloom filters off.
	DisableFilter bool
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
	// Executor performs compaction merges; nil selects the software
	// executor (compaction.CPU). Jobs whose fan-in exceeds
	// Executor.MaxRuns fall back to software, the paper's §VI-A rule. A
	// non-CPU Executor becomes a single device channel on the dispatch
	// scheduler; use DispatchConfig.Devices to configure more channels
	// (the two are mutually exclusive).
	Executor compaction.Executor
	// DispatchConfig groups the offload scheduler's configuration: device
	// channels, the shared flush/compaction worker pool size, fault
	// injection and scheduler tuning. Zero-value fields select defaults.
	DispatchConfig DispatchConfig
	// SyncWrites fsyncs the WAL on every commit.
	SyncWrites bool
	// SkiplistSeed fixes memtable randomness for reproducible tests.
	SkiplistSeed int64
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
	case o.RestartInterval < 0:
		return neg("RestartInterval", int64(o.RestartInterval))
	case o.FilterBitsPerKey < 0:
		return neg("FilterBitsPerKey", int64(o.FilterBitsPerKey))
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
	if o.Executor != nil && len(o.DispatchConfig.Devices) > 0 {
		return fmt.Errorf("lsm: invalid Options: Executor and DispatchConfig.Devices are mutually exclusive; put every channel in DispatchConfig.Devices")
	}
	if err := o.dispatchConfig().Validate(); err != nil {
		return fmt.Errorf("lsm: invalid Options: %w", err)
	}
	if o.DisableFilter && o.FilterBitsPerKey > 0 {
		return fmt.Errorf("lsm: invalid Options: DisableFilter set but FilterBitsPerKey is %d", o.FilterBitsPerKey)
	}
	// Contradictions are checked on the resolved values so that setting
	// only one trigger cannot silently invert the throttle ladder against
	// a defaulted neighbor.
	r := o.withDefaults()
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

func (o Options) withDefaults() Options {
	if o.MemTableBytes <= 0 {
		o.MemTableBytes = 4 << 20
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.RestartInterval <= 0 {
		o.RestartInterval = 16
	}
	if o.FilterBitsPerKey <= 0 && !o.DisableFilter {
		o.FilterBitsPerKey = 10
	}
	if o.DisableFilter {
		o.FilterBitsPerKey = 0
	}
	if o.BlockCacheBytes <= 0 {
		o.BlockCacheBytes = 8 << 20
	}
	if o.LevelRatio <= 0 {
		o.LevelRatio = 10
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 10 << 20
	}
	if o.MaxOutputFileBytes == 0 {
		o.MaxOutputFileBytes = 2 << 20
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = 4
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = 8
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = 12
	}
	if o.Executor == nil {
		o.Executor = compaction.CPU{}
	}
	if o.SkiplistSeed == 0 {
		o.SkiplistSeed = 0xfcae
	}
	return o
}

// dispatchConfig resolves the effective dispatch configuration: a non-CPU
// Executor becomes the single device channel when DispatchConfig.Devices
// is empty (a CPU or nil Executor means no devices at all, so every merge
// runs on the scheduler's CPU lane), and the pool defaults to 2 workers.
func (o Options) dispatchConfig() DispatchConfig {
	c := o.DispatchConfig
	if len(c.Devices) == 0 && o.Executor != nil {
		if _, isCPU := o.Executor.(compaction.CPU); !isCPU {
			c.Devices = []compaction.Executor{o.Executor}
		}
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	return c
}

func (o Options) tableOpts() sstable.Options {
	compression := sstable.SnappyCompression
	if o.DisableCompression {
		compression = sstable.NoCompression
	}
	return sstable.Options{
		BlockSize:        o.BlockSize,
		RestartInterval:  o.RestartInterval,
		Compression:      compression,
		FilterBitsPerKey: o.FilterBitsPerKey,
	}
}

func (o Options) manifestConfig() manifest.Config {
	return manifest.Config{
		LevelRatio:          o.LevelRatio,
		BaseLevelBytes:      o.BaseLevelBytes,
		L0CompactionTrigger: o.L0CompactionTrigger,
		MaxOutputFileBytes:  o.MaxOutputFileBytes,
		TieredRuns:          o.TieredRuns,
	}
}
