package core

import (
	"io"
	"testing"
)

// discardEnv numbers the outputs and drops their bytes, so a benchmark
// times the lane, not a growing buffer.
type discardEnv struct{ next uint64 }

func (e *discardEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	return e.next, discardFile{}, nil
}

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Close() error                { return nil }

// BenchmarkEngineLaneStoreJob is the 9-input engine's executor on the job
// a default store issues (compaction's storeJob: four runs of 10k entries,
// 256-byte values, snappy, 10-bit filters, 2 MiB tables, cut into eight
// parts): the `go test -bench` twin of the repo benchmark's compact-merge
// op2_p50_us, host time with nothing else in the way.
func BenchmarkEngineLaneStoreJob(b *testing.B) {
	job := storeShape{entries: 10_000}.job(b)
	job.MaxOutputBytes = 2 << 20
	x, err := NewExecutor(MultiInputConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(job.InputBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Compact(job, &discardEnv{}); err != nil {
			b.Fatal(err)
		}
	}
}
