package core

import (
	"sync/atomic"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/sstable"
)

// footerCounter counts the reads of a table's footer, which
// sstable.NewReader makes once per open.
type footerCounter struct {
	memReaderAt
	footers atomic.Int64
}

func (c *footerCounter) ReadAt(p []byte, off int64) (int, error) {
	if off == int64(len(c.memReaderAt))-sstable.FooterSize {
		c.footers.Add(1)
	}
	return c.memReaderAt.ReadAt(p, off)
}

// TestCompactOpensEachInputOnce: both lanes open every input table once
// per Compact, the engine lane included, whose cut rule and image
// builder read the same readers. The job is split into four parts, so
// the cut rule reads the inputs' index blocks.
func TestCompactOpensEachInputOnce(t *testing.T) {
	for _, lane := range []struct {
		name string
		exec func() (compaction.Executor, error)
	}{
		{"cpu", func() (compaction.Executor, error) { return compaction.CPU{}, nil }},
		{"engine", func() (compaction.Executor, error) { return NewExecutor(DefaultConfig()) }},
	} {
		t.Run(lane.name, func(t *testing.T) {
			job := *shadowingJob(t)
			job.MaxOutputBytes = uint64(job.InputBytes() / 4)
			var inputs []*footerCounter
			runs := make([][]compaction.Table, len(job.Runs))
			for i, run := range job.Runs {
				for _, tb := range run {
					c := &footerCounter{memReaderAt: tb.Data.(memReaderAt)}
					tb.Data = c
					inputs = append(inputs, c)
					runs[i] = append(runs[i], tb)
				}
			}
			job.Runs = runs
			x, err := lane.exec()
			if err != nil {
				t.Fatal(err)
			}
			res, err := x.Compact(&job, newMemEnv())
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Parts != 4 {
				t.Fatalf("merged in %d parts, want 4", res.Stats.Parts)
			}
			for i, c := range inputs {
				if n := c.footers.Load(); n != 1 {
					t.Errorf("input %d: footer read %d times, want 1", i, n)
				}
			}
		})
	}
}
