package compaction

import (
	"runtime"
	"time"

	"fcae/internal/iter"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// PipelineConfig tunes the stage-parallel CPU data path, mirroring the
// paper's hardware pipeline: an input read-ahead stage per run, the merge
// stage, and a pool of encoder workers behind a write sequencer.
type PipelineConfig struct {
	// Depth is the bounded queue depth between stages (input blocks
	// prefetched ahead of the merge per run, and output blocks in flight
	// behind it). 0 selects the legacy sequential path.
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
	num     uint64
	entries int
	reply   <-chan sstable.AsyncFinish
}

// compactPipelined is the stage-parallel data path. The merge loop is the
// sequential one; only where bytes enter and leave it changes:
//
//   - each input run reads ahead through a prefetchRun (decode stage);
//   - each completed output block is encoded and written by the shared
//     EncodePipeline (encode stage) while the merge continues;
//   - table rotation decides on size *bounds*, falling back to a barrier
//     sync only when the threshold lands inside them, so every rotation
//     matches the sequential path's decision and outputs stay
//     byte-identical.
func (c CPU) compactPipelined(job *Job, env Env) (*Result, error) {
	cfg := c.Pipeline.withDefaults()

	runs := make([]*prefetchRun, 0, len(job.Runs))
	defer func() {
		for _, p := range runs {
			p.Close()
		}
	}()
	its := make([]iter.Iterator, 0, len(job.Runs))
	for _, run := range job.Runs {
		p, err := newPrefetchRun(run, job.TableOpts, cfg.Depth)
		if err != nil {
			return nil, err
		}
		runs = append(runs, p)
		its = append(its, newRunIter(p))
	}

	// Abort ordering: the current output's file may still be written by
	// the pipeline's sequencer, so its close (registered here) must run
	// after pipe.Close (registered below) has joined the workers.
	var out *outputWriter
	defer func() {
		if out != nil {
			out.abort()
		}
	}()
	pipe := sstable.NewEncodePipeline(job.TableOpts, cfg.Depth, cfg.Encoders)
	defer pipe.Close()

	merged := iter.NewMerging(its...)
	merged.SeekToFirst()

	res := &Result{}
	res.Stats.BytesRead = job.InputBytes()
	drop := dropPolicy{smallestSnapshot: job.SmallestSnapshot, bottomLevel: job.BottomLevel}

	var pending []pendingOutput
	var lastUser []byte
	for ; merged.Valid(); merged.Next() {
		if err := pipe.Err(); err != nil {
			return nil, err
		}
		res.Stats.PairsIn++
		ikey := merged.Key()
		if drop.drop(ikey) {
			res.Stats.PairsDropped++
			continue
		}
		// Same rotation predicate as the sequential path —
		// EstimatedSize >= max at a user-key boundary — evaluated on
		// bounds so the merge rarely waits for in-flight encodes.
		if out != nil && keys.CompareUser(keys.UserKey(ikey), lastUser) != 0 {
			rotate := false
			lo, hi := out.w.SizeBounds()
			switch {
			case uint64(hi) < job.MaxOutputBytes:
				// Even if every in-flight block stays uncompressed the
				// table is under the cap.
			case uint64(lo) >= job.MaxOutputBytes:
				rotate = true
			default:
				rotate = uint64(out.w.SizeExact()) >= job.MaxOutputBytes
			}
			if rotate {
				pending = append(pending, pendingOutput{
					num:     out.num,
					entries: out.w.Entries(),
					reply:   out.w.FinishAsync(),
				})
				out = nil
			}
		}
		if out == nil {
			var err error
			if out, err = newAsyncOutput(env, job.TableOpts, pipe); err != nil {
				return nil, err
			}
		}
		if err := out.add(ikey, merged.Value()); err != nil {
			return nil, err
		}
		// Hand any block the Add completed to the encoders. The hand-off
		// lives here, not inside Add, so lock-holding sync users of the
		// writer never share a code path with channel waits.
		out.w.PumpAsync()
		lastUser = append(lastUser[:0], keys.UserKey(ikey)...)
		res.Stats.PairsOut++
	}
	if err := merged.Error(); err != nil {
		return nil, err
	}
	if out != nil {
		pending = append(pending, pendingOutput{
			num:     out.num,
			entries: out.w.Entries(),
			reply:   out.w.FinishAsync(),
		})
		out = nil
	}

	// Collect tails in table order. Replies resolve as the sequencer
	// reaches each finish item, so this wait is the pipeline drain.
	done := job.Trace.StartSpan("flush_wait")
	for _, p := range pending {
		fin := <-p.reply
		if fin.Err != nil {
			done()
			return nil, fin.Err
		}
		if p.entries == 0 {
			continue
		}
		res.Outputs = append(res.Outputs, OutputTable{
			Num:      p.num,
			Size:     fin.Stats.FileSize,
			Entries:  fin.Stats.Entries,
			Smallest: fin.Stats.Smallest,
			Largest:  fin.Stats.Largest,
		})
		res.Stats.BytesWritten += fin.Stats.FileSize
	}
	done()

	es := pipe.Stats()
	ps := &res.Stats.Pipeline
	ps.Blocks = es.Blocks
	ps.EncodeStalls = es.EncodeStalls
	ps.EncodeStallNanos = es.EncodeStallNanos
	ps.SubmitStalls = es.SubmitStalls
	ps.SubmitStallNanos = es.SubmitStallNanos
	ps.SizeSyncs = es.SizeSyncs
	for _, p := range runs {
		ps.PrefetchStalls += p.stalls
		ps.PrefetchStallNanos += p.stallNanos
	}
	job.Trace.AddSpan("prefetch_stall", time.Duration(ps.PrefetchStallNanos))
	job.Trace.AddSpan("encode_stall", time.Duration(ps.EncodeStallNanos))
	job.Trace.AddSpan("submit_stall", time.Duration(ps.SubmitStallNanos))
	return res, nil
}

// newAsyncOutput opens one output table writing through the encode
// pipeline.
func newAsyncOutput(env Env, opts sstable.Options, pipe *sstable.EncodePipeline) (*outputWriter, error) {
	num, f, err := env.NewOutput()
	if err != nil {
		return nil, err
	}
	return &outputWriter{num: num, f: f, w: sstable.NewWriterAsync(f, opts, pipe)}, nil
}
