package compaction

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/sstable"
	"fcae/internal/workload"
)

// benchJob builds the Table V-style 2-run workload: two sorted runs of
// interleaved keys with ~100 B values, snappy-compressed 4 KiB blocks,
// ~2 MB output tables.
func benchJob(tb testing.TB, entriesPerRun int) *Job {
	tb.Helper()
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := &Job{
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        opts,
		MaxOutputBytes:   2 << 20,
	}
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i * 31)
	}
	for r := 0; r < 2; r++ {
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, opts)
		for i := 0; i < entriesPerRun; i++ {
			ik := keys.MakeInternal(nil, []byte(fmt.Sprintf("key%09d", i*2+r)), uint64(r*1000000+i), keys.KindSet)
			if err := w.Add(ik, val); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			tb.Fatal(err)
		}
		data := append([]byte(nil), buf.Bytes()...)
		job.Runs = append(job.Runs, []Table{{
			Num:  uint64(r + 1),
			Size: int64(len(data)),
			Data: memReaderAt(data),
		}})
	}
	return job
}

type nullFile struct{}

func (nullFile) Write(p []byte) (int, error) { return len(p), nil }
func (nullFile) Close() error                { return nil }

// nullEnv discards output bytes so the benchmark measures the data path,
// not allocator churn in a growing buffer.
type nullEnv struct{ next uint64 }

func (e *nullEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	return e.next, nullFile{}, nil
}

// benchCompact times the CPU lane on job, output discarded.
func benchCompact(b *testing.B, job *Job) {
	b.SetBytes(job.InputBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (CPU{}).Compact(job, &nullEnv{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactMerge is the CPU lane on the 2-run workload.
func BenchmarkCompactMerge(b *testing.B) { benchCompact(b, benchJob(b, 40000)) }

// storeJob builds the job a default store issues and the repo benchmark's
// compact-merge times: four runs of 10k entries interleaved key by key,
// 16-byte keys, 256-byte values cut from the workload generator's
// half-compressible pool, snappy blocks and a 10-bit bloom filter per
// table.
func storeJob(tb testing.TB) *Job {
	tb.Helper()
	opts := sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}
	job := &Job{
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        opts,
		MaxOutputBytes:   2 << 20,
	}
	rng := rand.New(rand.NewSource(1))
	pool := workload.NewValueGen(1<<19, 0.5, 1).Value()
	const runs, entries = 4, 10_000
	for r := 0; r < runs; r++ {
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, opts)
		for i := 0; i < entries; i++ {
			off := rng.Intn(len(pool) - 256)
			val := pool[off : off+256]
			ik := keys.MakeInternal(nil, []byte(fmt.Sprintf("%016d", i*runs+r)), uint64(r*entries+i+1), keys.KindSet)
			if err := w.Add(ik, val); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			tb.Fatal(err)
		}
		data := append([]byte(nil), buf.Bytes()...)
		job.Runs = append(job.Runs, []Table{{Num: uint64(r + 1), Size: int64(len(data)), Data: memReaderAt(data)}})
	}
	return job
}

// BenchmarkCompactStoreJob is the CPU lane on storeJob: the `go
// test -bench` twin of the repo benchmark's compact-merge mb_per_s.
func BenchmarkCompactStoreJob(b *testing.B) { benchCompact(b, storeJob(b)) }

// TestSequentialCompactAllocsBudget pins the CPU lane's allocs/op on
// storeJob. Before the path read its input through BlockScanner into
// one recycled buffer and the writer kept filter hashes instead of key
// copies, this job cost 52.9k allocations: one key copy per entry, two
// buffers and an iterator per input block. What is left is per table
// (readers, writers, index and filter blocks), so a per-block allocation
// creeping back (~2.7k input blocks) or a per-entry one (40k) trips it.
func TestSequentialCompactAllocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget; skipped in -short")
	}
	job := storeJob(t)
	res := testing.Benchmark(func(b *testing.B) { benchCompact(b, job) })
	// Measured 437: 470 before the writer's region took over its encode
	// buffer and trailer and the scanner's window the per-run read buffer.
	// The budget is that 470, so bulk I/O may not buy its syscalls with
	// allocations.
	const budget = 470
	if got := res.AllocsPerOp(); got > budget {
		t.Fatalf("sequential compaction allocates %d allocs/op, budget is %d", got, budget)
	} else {
		t.Logf("sequential compaction: %d allocs/op (budget %d)", got, budget)
	}
}
