// Package core implements the FCAE compaction engine — the paper's primary
// contribution — as a functional simulator: it executes the exact merge the
// KCU1500 pipeline would (real SSTable bytes in, real SSTable blocks out,
// through the paper's device memory layouts) while accounting elapsed
// device cycles with the pipeline model of §V (Tables II/III) plus
// calibrated per-block overheads. The surrounding host integration
// (package lsm) treats it as a drop-in compaction executor.
package core

import (
	"errors"
	"fmt"
)

// The fixed hardware of the paper's engine (§VII-A): one KCU1500 clocked
// at 200 MHz. Table VII sweeps only N, WIn and V; everything here is the
// same in every configuration.
const (
	// ClockHz is the engine clock (200 MHz).
	ClockHz = 200e6
	// DefaultDRAMBytes is the card's off-chip DRAM (16 GiB).
	DefaultDRAMBytes = 16 << 30
	// MaxAXIBytesPerCycle is the AXI limit of 512 bits per cycle (§V-D2).
	MaxAXIBytesPerCycle = 64
	// WOut is the DRAM write width for output data blocks, the full AXI
	// width.
	WOut = MaxAXIBytesPerCycle
	// DRAMLatencyCycles is the off-chip DRAM read latency (§V-B: "the
	// read latency of DRAM is 7-8 cycles").
	DRAMLatencyCycles = 8
	// FIFODepth is the per-lane key/value FIFO capacity in entries (§V-C:
	// FIFOs hold the decoded key and value streams). It bounds how far a
	// decoder can run ahead of the Comparer.
	FIFODepth = 32
	// DefaultArenaPerLane is the modeled staging-arena share per decoder
	// lane: each input run needs room for its serialized image, plus the
	// shared output region, carved from the card's DRAM.
	DefaultArenaPerLane = 16 << 20
	// MaxArenaBytes caps the modeled arena at a small fraction of the
	// card DRAM — the rest holds data at rest between jobs.
	MaxArenaBytes = DefaultDRAMBytes / 64
)

// Config describes one synthesized engine configuration: the triple
// (N, WIn, V) that Table VII sweeps, the two ablation switches, and the
// channel's staging arena. Its zero value in every other field is the
// paper's design, so Config{N: 9, V: 8, WIn: 8} is the 9-input engine.
type Config struct {
	// N is the number of decoder lanes: the maximum sorted inputs merged
	// in hardware. Jobs with more runs fall back to software (§VI-A).
	N int
	// V is the value-lane width in bytes/cycle (§V-D1).
	V int
	// WIn is the DRAM read width for data blocks in bytes/cycle (§V-D2).
	WIn int

	// NoKeyValueSeparation turns off the §V-C optimization: values
	// traverse the Comparer path byte-serially — the basic pipeline of
	// Fig 2, kept for ablation.
	NoKeyValueSeparation bool
	// NoIndexDataSeparation turns off the §V-B optimization: the
	// decoder's read pointer switches between index and data blocks
	// (Algorithm 1), serializing index fetches with decode.
	NoIndexDataSeparation bool
	// StagingBytes sizes the channel's persistent device-memory arena
	// that input/output images are staged in. Zero selects the modeled
	// default (ArenaBytes); a negative value is invalid.
	StagingBytes int64
}

// DefaultConfig returns the 2-input configuration of §VII-B.
func DefaultConfig() Config {
	return Config{N: 2, V: 16, WIn: 64}
}

// MultiInputConfig returns the 9-input configuration of §VII-C (W_in and V
// reduced to 8 so the design fits the chip; see Table VII).
func MultiInputConfig() Config {
	return Config{N: 9, V: 8, WIn: 8}
}

// ErrConfig reports an invalid engine configuration.
var ErrConfig = errors.New("core: invalid engine configuration")

// Validate checks structural constraints only; whether the configuration
// fits the chip is Fits's question, so an oversized one still simulates.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: N=%d, need at least 2 inputs", ErrConfig, c.N)
	}
	if c.V < 1 || c.V > MaxAXIBytesPerCycle {
		return fmt.Errorf("%w: V=%d out of [1,%d]", ErrConfig, c.V, MaxAXIBytesPerCycle)
	}
	if c.WIn < c.V {
		return fmt.Errorf("%w: WIn=%d must be >= V=%d (the Stream Downsizer narrows, never widens)", ErrConfig, c.WIn, c.V)
	}
	if c.WIn > MaxAXIBytesPerCycle {
		return fmt.Errorf("%w: WIn=%d above the AXI width of %d bytes/cycle", ErrConfig, c.WIn, MaxAXIBytesPerCycle)
	}
	if c.StagingBytes < 0 {
		return fmt.Errorf("%w: StagingBytes=%d, want 0 (modeled default) or a size", ErrConfig, c.StagingBytes)
	}
	return nil
}

// Fits reports whether the configuration's resource estimate stays within
// the chip (LUTs are the binding resource, Table VII).
func (c Config) Fits() bool {
	u := c.Resources()
	return u.LUT <= 100 && u.BRAM <= 100 && u.FF <= 100
}

// ArenaBytes resolves the channel's staging-arena size: StagingBytes when
// set, otherwise N lanes' worth of DefaultArenaPerLane capped at
// MaxArenaBytes.
func (c Config) ArenaBytes() int64 {
	if c.StagingBytes > 0 {
		return c.StagingBytes
	}
	n := c.N
	if n <= 0 {
		n = DefaultConfig().N
	}
	total := int64(n) * DefaultArenaPerLane
	if total > MaxArenaBytes {
		total = MaxArenaBytes
	}
	return total
}

// ArenaInputBudget is the largest job input, in bytes, that a channel
// built from c can stage: the dispatcher's arena admission limit,
// computed without building the executor.
func (c Config) ArenaInputBudget() int64 {
	return arenaInputBudget(c.ArenaBytes())
}

// withDefaults fills a zero N, V or WIn from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N == 0 {
		c.N = d.N
	}
	if c.V == 0 {
		c.V = d.V
	}
	if c.WIn == 0 {
		c.WIn = d.WIn
	}
	return c
}
