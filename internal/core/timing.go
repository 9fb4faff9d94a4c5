package core

import (
	"fcae/internal/model"
)

// Pipeline timing model (paper §V, Tables II and III). The closed-form
// stage periods below are the paper's analytical bounds; the calibration
// constants add the costs the analysis abstracts away (snappy codec lanes,
// FIFO refill, AXI burst setup), fitted so the simulated 2-input engine
// reproduces Table V within ~10%.
const (
	// decValueAlpha + decValueBeta/V is the effective decoder cycles per
	// value byte: the 1/V transfer term of Table III plus a per-byte
	// decompression cost independent of lane width.
	decValueAlpha = 0.121
	decValueBeta  = 2.24
	// decPerPairFixed covers per-entry varint parsing and FIFO handshakes
	// in the Data Block Decoder.
	decPerPairFixed = 39.5
	// cmpPerSelectFixed covers the validity check and mux settling added
	// to the compare tree's (2+ceil(log2 N))*Lkey period.
	cmpPerSelectFixed = 20.0
	// encPerPairFixed covers the Data Block Encoder's restart bookkeeping.
	encPerPairFixed = 4.0
	// indexEntryCycles is the Index Block Decoder/Encoder cost per entry
	// (low duty cycle; only visible with NoIndexDataSeparation).
	indexEntryCycles = 24.0
	// blockFlushFixed is charged when an output data block closes: index
	// entry append plus AXI write burst setup.
	blockFlushFixed = 16.0
)

// stagePeriods returns the per-pair service cycles of each pipeline stage
// for an entry with the given key and value lengths (paper Table III; with
// NoKeyValueSeparation, Table II's basic pipeline where the value rides
// through every stage byte-serially).
func (c Config) stagePeriods(keyLen, valueLen int) (dec, cmp, xfer, enc float64) {
	lk := float64(keyLen)
	lv := float64(valueLen)
	if !c.NoKeyValueSeparation {
		dec = lk + lv*(decValueAlpha+decValueBeta/float64(c.V)) + decPerPairFixed
		cmp = float64(2+model.CeilLog2(c.N))*lk + cmpPerSelectFixed
		xfer = lk
		if v := lv / float64(c.V); v > xfer {
			xfer = v
		}
		enc = lk + lv/WOut + encPerPairFixed
		return dec, cmp, xfer, enc
	}
	// Basic pipeline (Fig 2): key and value move together at one byte per
	// cycle through decode, compare selection and transfer.
	dec = lk + lv*(1+decValueAlpha) + decPerPairFixed
	cmp = float64(2+model.CeilLog2(c.N))*lk + cmpPerSelectFixed
	xfer = lk + lv
	enc = lk + lv + encPerPairFixed
	return dec, cmp, xfer, enc
}

// blockSwitchCycles is charged by a Data Block Decoder when it crosses
// into the next data block. With index/data separation the index fetch is
// pipelined and only the DRAM burst latency shows; without it the read
// pointer switches to the index block and back (Algorithm 1), serializing
// two DRAM round trips plus the index entry decode.
//
//fcae:cycle-accounting
func (c Config) blockSwitchCycles() float64 {
	if !c.NoIndexDataSeparation {
		return DRAMLatencyCycles
	}
	return 2*DRAMLatencyCycles + indexEntryCycles
}

// BottleneckPeriod returns the steady-state cycles per pair for uniform
// entries of the given sizes: the max stage period (paper §V-D1, "the
// module with the longest cycles determines the average execution time in
// a pipeline system"). Exposed for tests and the analytic LSM simulator.
func (c Config) BottleneckPeriod(keyLen, valueLen int) float64 {
	dec, cmp, xfer, enc := c.withDefaults().stagePeriods(keyLen, valueLen)
	m := dec
	for _, v := range []float64{cmp, xfer, enc} {
		if v > m {
			m = v
		}
	}
	return m
}

// BottleneckStage names the limiting stage for uniform entries, matching
// the paper's crossover analysis (L_key vs L_value/((1+ceil(log2 N))*V)).
func (c Config) BottleneckStage(keyLen, valueLen int) string {
	dec, cmp, xfer, enc := c.withDefaults().stagePeriods(keyLen, valueLen)
	best, name := dec, "decoder"
	if cmp > best {
		best, name = cmp, "comparer"
	}
	if xfer > best {
		best, name = xfer, "transfer"
	}
	if enc > best {
		name = "encoder"
	}
	return name
}

// SpeedMBps returns the modeled steady-state compaction speed in MB/s for
// uniform entries, counting keyLen+valueLen input bytes per pair. Used by
// the analytic simulator; the engine itself reports measured cycles.
//
//fcae:cycle-accounting
func (c Config) SpeedMBps(keyLen, valueLen int) float64 {
	period := c.BottleneckPeriod(keyLen, valueLen)
	bytesPerPair := float64(keyLen + valueLen)
	return bytesPerPair * ClockHz / period / 1e6
}
