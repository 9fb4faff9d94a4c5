package compaction

import (
	"runtime"
	"time"

	"fcae/internal/sstable"
)

// PipelineConfig tunes the CPU data path's encode stage, the software
// analogue of the paper's Encoder running beside the Comparer: a pool of
// encoder workers and a write sequencer behind the merge loop.
type PipelineConfig struct {
	// Depth is the number of output blocks in flight behind the merge. 0
	// encodes and writes each block inline.
	Depth int
	// Encoders is the encode-stage worker count; <= 0 selects
	// min(GOMAXPROCS, 4).
	Encoders int
}

// withDefaults resolves the encoder count; Depth is left alone (0 is
// meaningful: it disables the pipeline).
func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Encoders <= 0 {
		c.Encoders = runtime.GOMAXPROCS(0)
		if c.Encoders > 4 {
			c.Encoders = 4
		}
	}
	return c
}

// pendingOutput is one output table whose tail write is in flight on the
// encode pipeline's sequencer.
type pendingOutput struct {
	num   uint64
	reply <-chan sstable.AsyncFinish
}

// err reports the pipe's first write error, so the merge can abandon a
// doomed job instead of discovering the failure at drain time.
func (o *outputs) err() error {
	if o.pipe == nil {
		return nil
	}
	return o.pipe.Err()
}

// drain collects the queued tables' tails in table order — replies
// resolve as the sequencer reaches each one, so this wait is the pipe
// emptying — and reports the stage's stalls.
func (o *outputs) drain() error {
	if o.pipe == nil {
		return nil
	}
	done := o.job.Trace.StartSpan("flush_wait")
	defer done()
	for _, p := range o.pending {
		fin := <-p.reply
		if fin.Err != nil {
			return fin.Err
		}
		o.record(p.num, fin.Stats)
	}
	es := o.pipe.Stats()
	o.res.Stats.Pipeline = PipelineStats{
		Blocks:           es.Blocks,
		EncodeStalls:     es.EncodeStalls,
		EncodeStallNanos: es.EncodeStallNanos,
		SubmitStalls:     es.SubmitStalls,
		SubmitStallNanos: es.SubmitStallNanos,
		SizeSyncs:        es.SizeSyncs,
	}
	o.job.Trace.AddSpan("encode_stall", time.Duration(es.EncodeStallNanos))
	o.job.Trace.AddSpan("submit_stall", time.Duration(es.SubmitStallNanos))
	return nil
}
