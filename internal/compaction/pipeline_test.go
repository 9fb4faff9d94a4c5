package compaction

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// buildRun builds one sorted run of n entries drawn from a keyspace of
// width `space`, seeded deterministically, split into tables of at most
// tableEntries entries.
func buildRun(t *testing.T, rng *rand.Rand, opts sstable.Options, n, space, tableEntries int, baseSeq uint64) []Table {
	t.Helper()
	users := make(map[string]bool, n)
	for len(users) < n {
		users[fmt.Sprintf("key%06d", rng.Intn(space))] = true
	}
	sorted := make([]string, 0, n)
	for u := range users {
		sorted = append(sorted, u)
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var tables []Table
	var buf bytes.Buffer
	var w *sstable.Writer
	entries := 0
	num := uint64(1)
	flush := func() {
		if w == nil {
			return
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), buf.Bytes()...)
		tables = append(tables, Table{Num: num, Size: int64(len(data)), Data: memReaderAt(data)})
		num++
		w = nil
		buf.Reset()
	}
	for _, u := range sorted {
		if w == nil {
			w = sstable.NewWriter(&buf, opts)
			entries = 0
		}
		kind := keys.KindSet
		if rng.Intn(10) == 0 {
			kind = keys.KindDelete
		}
		ik := keys.MakeInternal(nil, []byte(u), baseSeq+uint64(rng.Intn(50)), kind)
		val := bytes.Repeat([]byte(u), 1+rng.Intn(8))
		if err := w.Add(ik, val); err != nil {
			t.Fatal(err)
		}
		entries++
		if entries >= tableEntries {
			flush()
		}
	}
	flush()
	return tables
}

// pipelineJob builds a multi-run job with overlapping keys, tombstones
// and duplicate user keys across runs.
func pipelineJob(t *testing.T, seed int64, opts sstable.Options, maxOut uint64) *Job {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	job := &Job{
		SmallestSnapshot: 40, // keep some shadowed versions, drop others
		BottomLevel:      true,
		TableOpts:        opts,
		MaxOutputBytes:   maxOut,
	}
	for r := 0; r < 3; r++ {
		job.Runs = append(job.Runs,
			buildRun(t, rng, opts, 300, 600, 120, uint64(r)*60))
	}
	return job
}

// TestCompactPipelineByteIdentical is the tentpole property: the same job
// through the sequential and pipelined paths must produce byte-identical
// output files, across block sizes and codecs, including under forced
// size-bound barrier syncs (tiny MaxOutputBytes → many rotations).
func TestCompactPipelineByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		opts   sstable.Options
		maxOut uint64
	}{
		{"4k-snappy", sstable.Options{Compression: sstable.SnappyCompression}, 6 << 10},
		{"4k-nocompress", sstable.Options{Compression: sstable.NoCompression}, 16 << 10},
		{"256b-snappy", sstable.Options{BlockSize: 256, Compression: sstable.SnappyCompression}, 4 << 10},
		{"256b-nocompress", sstable.Options{BlockSize: 256, Compression: sstable.NoCompression}, 4 << 10},
		{"1k-snappy-filter", sstable.Options{BlockSize: 1024, Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}, 8 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				job := pipelineJob(t, seed, tc.opts, tc.maxOut)

				seqEnv := newMemEnv()
				seqRes, err := CPU{}.Compact(job, seqEnv)
				if err != nil {
					t.Fatal(err)
				}
				pipeEnv := newMemEnv()
				pipeRes, err := CPU{Pipeline: PipelineConfig{Depth: 4, Encoders: 3}}.Compact(job, pipeEnv)
				if err != nil {
					t.Fatal(err)
				}

				if len(seqRes.Outputs) != len(pipeRes.Outputs) {
					t.Fatalf("seed %d: %d outputs sequential, %d pipelined",
						seed, len(seqRes.Outputs), len(pipeRes.Outputs))
				}
				if len(seqRes.Outputs) < 2 {
					t.Fatalf("seed %d: want multiple outputs to exercise rotation, got %d", seed, len(seqRes.Outputs))
				}
				for i, so := range seqRes.Outputs {
					po := pipeRes.Outputs[i]
					if so.Num != po.Num || so.Size != po.Size || so.Entries != po.Entries {
						t.Fatalf("seed %d output %d: meta differs: %+v vs %+v", seed, i, so, po)
					}
					sb := seqEnv.files[so.Num].Bytes()
					pb := pipeEnv.files[po.Num].Bytes()
					if !bytes.Equal(sb, pb) {
						t.Fatalf("seed %d output %d (table %d): %d/%d bytes differ",
							seed, i, so.Num, len(sb), len(pb))
					}
				}
				if seqRes.Stats.PairsOut != pipeRes.Stats.PairsOut ||
					seqRes.Stats.PairsDropped != pipeRes.Stats.PairsDropped {
					t.Fatalf("seed %d: pair stats differ: %+v vs %+v", seed, seqRes.Stats, pipeRes.Stats)
				}
			}
		})
	}
}

// failingFile fails every write once `failAfter` bytes have been written
// through the env.
type failingFile struct {
	env *failingEnv
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.env.written >= f.env.failAfter {
		return 0, fmt.Errorf("injected write failure")
	}
	f.env.written += len(p)
	return len(p), nil
}

func (failingFile) Close() error { return nil }

type failingEnv struct {
	next      uint64
	written   int
	failAfter int
}

func (e *failingEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	return e.next, failingFile{env: e}, nil
}

// TestCompactPipelineWriteFailure injects a mid-pipeline write failure
// and requires a clean abort: an error surfaced, and every pipeline
// goroutine joined (no leak).
func TestCompactPipelineWriteFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, failAfter := range []int{0, 1 << 10, 8 << 10} {
		job := pipelineJob(t, 7, sstable.Options{BlockSize: 512, Compression: sstable.SnappyCompression}, 4<<10)
		env := &failingEnv{failAfter: failAfter}
		_, err := CPU{Pipeline: PipelineConfig{Depth: 2, Encoders: 2}}.Compact(job, env)
		if err == nil {
			t.Fatalf("failAfter=%d: compaction succeeded despite failing writer", failAfter)
		}
	}
	// The pipeline joins its goroutines synchronously in Close, so only
	// runtime jitter should remain.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestCompactPipelineStress drives many rotations and barrier syncs with
// maximum stage overlap; run under -race in CI.
func TestCompactPipelineStress(t *testing.T) {
	opts := sstable.Options{BlockSize: 256, Compression: sstable.SnappyCompression}
	for seed := int64(10); seed < 14; seed++ {
		job := pipelineJob(t, seed, opts, 2<<10)
		seqEnv := newMemEnv()
		seqRes, err := CPU{}.Compact(job, seqEnv)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []PipelineConfig{
			{Depth: 1, Encoders: 1},
			{Depth: 2, Encoders: 4},
			{Depth: 8, Encoders: 2},
		} {
			env := newMemEnv()
			res, err := CPU{Pipeline: cfg}.Compact(job, env)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outputs) != len(seqRes.Outputs) {
				t.Fatalf("cfg %+v seed %d: %d outputs, want %d", cfg, seed, len(res.Outputs), len(seqRes.Outputs))
			}
			for i, ot := range res.Outputs {
				if !bytes.Equal(env.files[ot.Num].Bytes(), seqEnv.files[seqRes.Outputs[i].Num].Bytes()) {
					t.Fatalf("cfg %+v seed %d: output %d differs", cfg, seed, i)
				}
			}
			if res.Stats.Pipeline.Blocks == 0 {
				t.Fatalf("cfg %+v: pipeline counters not threaded (Blocks=0)", cfg)
			}
		}
	}
}

// TestCompactPipelineDepthZeroIsSequential pins the config contract:
// depth 0 must take the sequential code path (no pipeline counters).
func TestCompactPipelineDepthZeroIsSequential(t *testing.T) {
	job := pipelineJob(t, 3, sstable.Options{}, 16<<10)
	env := newMemEnv()
	res, err := CPU{Pipeline: PipelineConfig{Depth: 0, Encoders: 8}}.Compact(job, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pipeline != (PipelineStats{}) {
		t.Fatalf("depth 0 ran the pipeline: %+v", res.Stats.Pipeline)
	}
}

// outputDigest is the SHA-256 over a result's output files, in output
// order.
func outputDigest(env *memEnv, res *Result) string {
	h := sha256.New()
	for _, ot := range res.Outputs {
		h.Write(env.files[ot.Num].Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompactGoldenDigest pins the bytes both CPU lanes write for
// storeJob to a digest recorded at a779388, before the lanes shared one
// merge loop and one block framing: byte-identity with what the store
// has always written, not only between today's lanes.
func TestCompactGoldenDigest(t *testing.T) {
	const want = "0058f563114871d31c97e7e7c40d94e96ca4e9ec16ab34f7b192e36d842cb002"
	job := storeJob(t)
	for _, cpu := range []CPU{{}, {Pipeline: PipelineConfig{Depth: 4}}} {
		env := newMemEnv()
		res, err := cpu.Compact(job, env)
		if err != nil {
			t.Fatal(err)
		}
		if got := outputDigest(env, res); got != want {
			t.Errorf("%+v: %d outputs digest to %s, want %s", cpu, len(res.Outputs), got, want)
		}
	}
}
