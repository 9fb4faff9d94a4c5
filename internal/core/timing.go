package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"fcae/internal/model"
	"fcae/internal/sstable"
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

// stageMemo is stagePeriods for the sizes it was asked for last: the
// pairs of a stream mostly share them.
type stageMemo struct {
	keyLen, valueLen    uint32
	set                 bool
	dec, cmp, xfer, enc float64
}

// periods returns c.stagePeriods(keyLen, valueLen).
func (m *stageMemo) periods(c Config, keyLen, valueLen uint32) (dec, cmp, xfer, enc float64) {
	if !m.set || m.keyLen != keyLen || m.valueLen != valueLen {
		m.dec, m.cmp, m.xfer, m.enc = c.stagePeriods(int(keyLen), int(valueLen))
		m.keyLen, m.valueLen, m.set = keyLen, valueLen, true
	}
	return m.dec, m.cmp, m.xfer, m.enc
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

// timing is the timing pass: the Fig 5 pipeline's clocks, advanced pair
// by pair over the records of the whole stream in key order.
type timing struct {
	cfg   Config
	stats *Stats
	lanes []laneClock
	chunk []pairRecord // the records of the part merged on the caller
	// The periods of the pair selected and of the head decoded last.
	pair, head stageMemo

	cmpClock, xferClock, encClock float64
	// pending is the cycles sealing the last block of parts replayed
	// since the last kept pair: the whole stream's encoder spends them on
	// the next kept pair, or at the end.
	pending float64

	// The table the host's stitcher (compaction.Tables) has open, as the
	// records show it: it ends before a block that begins a new user key
	// once the blocks sealed into it reach tableBytes, and the encoder
	// spends the index block's write-back there.
	tableBytes  int64
	tableSealed int64
	tableOpen   bool
	blockDone   bool // the last block is sealed: the next kept pair begins one

	trace      io.Writer
	traceLimit int
}

// laneClock is one decoder lane as the timing pass sees it.
type laneClock struct {
	decClock  float64 // decoder's own timeline (runs ahead through FIFOs)
	headReady float64 // when the current head pair became available
	busy      float64 // accumulated decode service cycles
	live      bool

	// hist is a ring of the last FIFODepth consumption times: the decoder
	// can only decode pair k once pair k-FIFODepth has left the FIFO.
	hist     []float64
	histPos  int
	consumed int
}

// start sets the lanes' clocks from their first heads, after the initial
// index fetch, and writes the trace header.
//
//fcae:cycle-accounting
func (t *timing) start(lanes []lane) {
	t.lanes = make([]laneClock, len(lanes))
	// One backing array for every lane's FIFO occupancy history.
	hist := make([]float64, len(lanes)*FIFODepth)
	for i := range lanes {
		c := &t.lanes[i]
		c.hist = hist[i*FIFODepth : (i+1)*FIFODepth]
		// Initial index fetch latency before the first pair can decode.
		c.decClock = DRAMLatencyCycles
		if l := &lanes[i]; l.live {
			dec, _, _, _ := t.head.periods(t.cfg, uint32(len(l.key)), uint32(len(l.value)))
			c.decode(t.cfg, dec, l.first)
		}
	}
	if t.trace != nil {
		fmt.Fprintln(t.trace, "pair,lane,keyLen,valueLen,ready,cmpStart,cmpEnd,xferEnd,encEnd,dropped")
	}
}

// replay advances the pipeline over recs.
//
//fcae:cycle-accounting
func (t *timing) replay(recs []pairRecord) {
	st := t.stats
	for i := range recs {
		r := &recs[i]
		// The Key Compare module waits for every live FIFO head (§V-A).
		ready := 0.0
		for j := range t.lanes {
			if l := &t.lanes[j]; l.live && l.headReady > ready {
				ready = l.headReady
			}
		}
		st.PairsIn++

		_, cmpP, xferP, encP := t.pair.periods(t.cfg, r.keyLen, r.valueLen)
		start := t.cmpClock
		if ready > start {
			start = ready
		}
		t.cmpClock = start + cmpP
		st.ComparerBusy += cmpP

		if r.dropped {
			st.PairsDropped++
		} else {
			// Key-Value Transfer then Encoder (§V-C: the Drop flag selects
			// the key stream and value stream at the same time).
			if c := t.cmpClock; c > t.xferClock {
				t.xferClock = c
			}
			t.xferClock += xferP
			st.TransferBusy += xferP
			if c := t.xferClock; c > t.encClock {
				t.encClock = c
			}
			t.encClock += encP
			st.EncoderBusy += encP
			flush := 0.0
			if t.blockDone {
				if t.tableOpen && r.newUser && sstable.TableFull(t.tableSealed, t.tableBytes) {
					flush = blockFlushFixed // the index block write-back
					t.tableSealed = 0
				}
				t.tableOpen, t.blockDone = true, false
			}
			if r.sealed > 0 {
				flush += blockFlushFixed
				t.seal(r.sealed)
			}
			t.encClock += t.pending + flush
			t.pending = 0
			st.PairsOut++
		}
		if t.trace != nil && st.PairsIn <= t.traceLimit {
			//fcae:alloc-ok trace is off in production (TraceWriter nil) and bounded by traceLimit rows when on
			fmt.Fprintf(t.trace, "%d,%d,%d,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%v\n",
				st.PairsIn, r.lane, r.keyLen, r.valueLen,
				ready, start, t.cmpClock, t.xferClock, t.encClock, r.dropped)
		}
		w := &t.lanes[r.lane]
		w.pushConsume(start)
		if r.nextOK {
			dec, _, _, _ := t.head.periods(t.cfg, r.nextKeyLen, r.nextValueLen)
			w.decode(t.cfg, dec, r.nextFirst)
		} else {
			w.live = false
		}
	}
}

// seal counts a block of sealed bytes into the open table and the
// device's output: the block, WOut-aligned, and its index entry's fixed
// part.
//
//fcae:cycle-accounting
func (t *timing) seal(sealed uint32) {
	t.tableSealed += int64(sealed)
	t.blockDone = true
	data := int64(sealed) - sstable.BlockTrailerSize + 1 // the payload and its type byte
	if rem := data % WOut; rem != 0 {
		data += WOut - rem
	}
	t.stats.BytesOut += data + 2*binary.MaxVarintLen64
}

// partEnd charges the block a part's end sealed, sealed bytes (0: none),
// to the next kept pair or the end.
//
//fcae:cycle-accounting
func (t *timing) partEnd(sealed uint32) {
	if sealed > 0 {
		t.pending += blockFlushFixed
		t.seal(sealed)
	}
}

// finish charges the last table's closing cycles and sets the run's
// cycle count and busiest decoder.
//
//fcae:cycle-accounting
func (t *timing) finish() {
	closing := 0.0
	if t.tableOpen {
		closing = blockFlushFixed // the index block write-back
	}
	t.encClock += t.pending + closing
	t.stats.Cycles = t.cmpClock
	if t.encClock > t.stats.Cycles {
		t.stats.Cycles = t.encClock
	}
	for i := range t.lanes {
		if b := t.lanes[i].busy; b > t.stats.DecoderBusy {
			t.stats.DecoderBusy = b
		}
	}
}

// decode charges the decoding of the lane's next head, of dec service
// cycles: a block switch when it opens a data block, then its decode
// service once the FIFO has room.
//
//fcae:cycle-accounting
func (l *laneClock) decode(cfg Config, dec float64, first bool) {
	if first {
		// Block switch: index fetch (hidden or serialized per §V-B) plus
		// the DRAM burst for the block itself.
		l.decClock += cfg.blockSwitchCycles()
	}
	if c := l.fifoConstraint(); c > l.decClock {
		l.decClock = c
	}
	l.decClock += dec
	l.busy += dec
	l.headReady = l.decClock
	l.live = true
}

// pushConsume records the time the current head left the FIFO.
func (l *laneClock) pushConsume(t float64) {
	l.hist[l.histPos] = t
	l.histPos = (l.histPos + 1) % len(l.hist)
	l.consumed++
}

// fifoConstraint returns the time the FIFO slot for the next decode frees.
func (l *laneClock) fifoConstraint() float64 {
	if l.consumed < len(l.hist) {
		return 0
	}
	// The oldest entry in the ring is the consume time of pair k-Depth.
	return l.hist[l.histPos]
}
