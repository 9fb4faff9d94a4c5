package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/sstable"
	"fcae/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's engine")

// storeShape describes a job shaped like the one a default store issues
// (and the repo benchmark's compact-merge times): four runs interleaved
// key by key, 16-byte keys, 256-byte values cut from the workload
// generator's half-compressible pool, snappy blocks, 10-bit filters. The
// other fields bend it to reach the cases the engine must model exactly.
type storeShape struct {
	entries int // per run
	// versions makes runs 0 and 1 newer versions of runs 2 and 3's keys;
	// every seventh entry is then a tombstone and the snapshot is live,
	// in the middle of the sequences.
	versions bool
	// tableEntries cuts each run into tables of this many entries (0: one
	// table per run).
	tableEntries int
	// shortRun holds only the first eighth of the key space: the later
	// parts have no pairs from its lane.
	shortRun int
}

func (s storeShape) job(t testing.TB) *compaction.Job {
	t.Helper()
	opts := sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}
	job := &compaction.Job{SmallestSnapshot: keys.MaxSeq, BottomLevel: true, TableOpts: opts}
	rng := rand.New(rand.NewSource(1))
	pool := workload.NewValueGen(1<<19, 0.5, 1).Value()
	const runs = 4
	for r := 0; r < runs; r++ {
		var run []compaction.Table
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, opts)
		finish := func() {
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			data := append([]byte(nil), buf.Bytes()...)
			run = append(run, compaction.Table{Num: uint64(r*100 + len(run) + 1), Size: int64(len(data)), Data: memReaderAt(data)})
			buf.Reset()
			w = sstable.NewWriter(&buf, opts)
		}
		n := s.entries
		if s.shortRun == r && s.shortRun > 0 {
			n /= 8
		}
		for i := 0; i < n; i++ {
			off := rng.Intn(len(pool) - 256)
			val := pool[off : off+256]
			key, seq, kind := i*runs+r, uint64(r*s.entries+i+1), keys.KindSet
			if s.versions {
				// Runs 0 and 1 rewrite runs 2 and 3's keys with newer
				// sequences.
				key = i*runs + r%2
				seq = uint64((runs-r)*s.entries + i + 1)
				if i%7 == 3 {
					kind = keys.KindDelete
				}
			}
			ik := keys.MakeInternal(nil, []byte(fmt.Sprintf("%016d", key)), seq, kind)
			if err := w.Add(ik, val); err != nil {
				t.Fatal(err)
			}
			if s.tableEntries > 0 && i%s.tableEntries == s.tableEntries-1 && i < n-1 {
				finish()
			}
		}
		finish()
		job.Runs = append(job.Runs, run)
	}
	if s.versions {
		job.SmallestSnapshot = uint64(7 * s.entries / 2)
	}
	// A table cap of a quarter of the input cuts the job into four parts.
	job.MaxOutputBytes = uint64(job.InputBytes() / 4)
	return job
}

// blockAtCut reports whether some input data block begins exactly at one
// of cuts: its first user key is at or past the cut and the block before
// it in the same run ends below it.
func blockAtCut(t *testing.T, job *compaction.Job, cuts [][]byte) bool {
	t.Helper()
	found := false
	for _, run := range job.Runs {
		var prev []byte // the last user key of the run's block before
		for _, tb := range run {
			r, err := sstable.NewReader(tb.Data, tb.Size, job.TableOpts, nil, tb.Num)
			if err != nil {
				t.Fatal(err)
			}
			var scratch []byte
			var it sstable.BlockIter
			err = r.VisitRawBlocks(func(b sstable.RawBlock) error {
				contents, err := sstable.DecodeBlock(&scratch, b.CType, b.Payload)
				if err != nil {
					return err
				}
				if err := it.Reset(contents); err != nil {
					return err
				}
				it.SeekToFirst()
				for _, c := range cuts {
					if prev != nil && keys.CompareUser(keys.UserKey(it.Key()), c) >= 0 && keys.CompareUser(prev, c) < 0 {
						found = true
					}
				}
				for ; it.Valid(); it.Next() {
					prev = append(prev[:0], keys.UserKey(it.Key())...)
				}
				return it.Error()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return found
}

// goldenCase is one job the engine model is pinned on, cut into four
// parts.
type goldenCase struct {
	name  string
	shape storeShape
	// cuts, when set, replaces the cut rule's: it picks the cuts from the
	// rule's own.
	cuts func(natural [][]byte) [][]byte
}

var goldenCases = []goldenCase{
	// The plain store job: the rule's cuts, one of them exactly where a
	// block begins.
	{name: "store", shape: storeShape{entries: 600}},
	// Tombstones, versions kept by a live snapshot, runs of several tables,
	// and a lane that has no pairs in the last three parts.
	{name: "versions", shape: storeShape{entries: 600, versions: true, tableEntries: 170, shortRun: 3}},
	// A part with no pairs at all: between the second cut and a key just
	// past it.
	{name: "empty-part", shape: storeShape{entries: 600}, cuts: func(n [][]byte) [][]byte {
		return [][]byte{n[0], append(append([]byte(nil), n[1]...), 'a'), append(append([]byte(nil), n[1]...), 'b')}
	}},
}

// goldenRun is what the golden file holds of one run: every Stats field,
// a digest of the output files and the head of the trace.
type goldenRun struct {
	stats  Stats
	digest string
	trace  []byte
}

// filesDigest is the SHA-256 over the output files, in output order.
func filesDigest(env *memEnv, res *compaction.Result) string {
	h := sha256.New()
	for _, ot := range res.Outputs {
		h.Write(env.files[ot.Num].Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenConfigs are the engines each golden job runs on: the 9-input
// engine the benchmark's engine lane models, whose comparer sets the
// pace, and a 4-lane engine with one-byte value lanes and no index/data
// separation, whose decoders set it, so lane timing, FIFO backpressure
// and block switches reach the cycle count.
var goldenConfigs = []struct {
	name string
	cfg  Config
}{
	{"n9", MultiInputConfig()},
	{"n4v1", Config{N: 4, V: 1, WIn: 8, NoIndexDataSeparation: true}},
}

func runGolden(t *testing.T, tc goldenCase, cfg Config) goldenRun {
	t.Helper()
	job := tc.shape.job(t)
	cuts := jobCuts(t, job)
	if len(cuts) != 3 {
		t.Fatalf("the rule cuts at %q, want 3 cuts", cuts)
	}
	if tc.cuts != nil {
		cuts = tc.cuts(cuts)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var images []*InputImage
	for _, run := range job.Runs {
		img, err := BuildInputImage(run, cfg.WIn, job.TableOpts)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	var trace bytes.Buffer
	env, out := newMemEnv(), &compaction.Result{}
	res, err := eng.Run(images, Params{
		BlockSize:         job.TableOpts.BlockSize,
		TableBytes:        int64(job.MaxOutputBytes),
		RestartInterval:   job.TableOpts.RestartInterval,
		Compress:          true,
		SmallestSnapshot:  job.SmallestSnapshot,
		BottomLevel:       job.BottomLevel,
		Cuts:              cuts,
		CollectFilterKeys: true,
		Tables:            compaction.NewTables(job, env, out),
		Arena:             NewArena(cfg.ArenaBytes()),
		TraceWriter:       &trace,
		TraceLimit:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{stats: res.Stats, digest: filesDigest(env, out), trace: trace.Bytes()}
}

// encode writes the golden file: the Stats as one JSON line (float64s in
// their shortest exact form), the digest, then the trace.
func (g goldenRun) encode(t *testing.T) []byte {
	t.Helper()
	line, err := json.Marshal(g.stats)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "%s\n%s\n%s", line, g.digest, g.trace)
}

func decodeGolden(t *testing.T, b []byte) goldenRun {
	t.Helper()
	var g goldenRun
	statsLine, rest, _ := bytes.Cut(b, []byte("\n"))
	digest, trace, _ := bytes.Cut(rest, []byte("\n"))
	if err := json.Unmarshal(statsLine, &g.stats); err != nil {
		t.Fatal(err)
	}
	g.digest, g.trace = string(digest), trace
	return g
}

// TestEngineGoldenInParts pins the engine model on jobs cut into four
// parts: every Stats field (Cycles compared with ==), the output files
// and the first 1000 rows of the trace. The run must come out equal, not
// close, on one core and on several. Regenerate with -update only for a
// change meant to move the model.
//
// Recorded first by the engine of a merge done in one pass over the
// whole stream; re-recorded when a cut began to end a block instead of
// a table, and the tables to be stitched from the blocks at assembly:
// store 6 tables of 426 167 bytes become 4 of 425 975 (110 742 / 110 746
// / 110 369 / 94 118), versions 4 of 296 560 stay 4 of 296 560 (89 125 /
// 87 788 / 86 589 / 33 058), empty-part 5 of 426 121 become 4 of 426 025.
// Cycles are unchanged in all six files, BytesOut no longer counts the
// index keys (the host's now), and one or two of the 1000 trace rows
// move, where a table's close was charged.
func TestEngineGoldenInParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range goldenCases {
		for _, gc := range goldenConfigs {
			path := filepath.Join("testdata", "parts-"+tc.name+"-"+gc.name+".golden")
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/procs=%d", tc.name, gc.name, procs), func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					got := runGolden(t, tc, gc.cfg)
					if *update {
						if err := os.WriteFile(path, got.encode(t), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					want := decodeGolden(t, raw)
					if got.stats != want.stats {
						t.Errorf("stats:\n got %+v\nwant %+v", got.stats, want.stats)
					}
					if got.stats.Cycles != want.stats.Cycles {
						t.Errorf("Cycles = %v, want %v", got.stats.Cycles, want.stats.Cycles)
					}
					if got.digest != want.digest {
						t.Errorf("output files digest to %s, want %s", got.digest, want.digest)
					}
					if !bytes.Equal(got.trace, want.trace) {
						gl, wl := bytes.Split(got.trace, []byte("\n")), bytes.Split(want.trace, []byte("\n"))
						for i := 0; i < len(gl) && i < len(wl); i++ {
							if !bytes.Equal(gl[i], wl[i]) {
								t.Fatalf("trace row %d:\n got %s\nwant %s", i, gl[i], wl[i])
							}
						}
						t.Fatalf("trace has %d rows, want %d", len(gl), len(wl))
					}
				})
			}
		}
	}
}

// TestGoldenCasesCoverTheirCases checks the golden jobs are what they
// are said to be: a block begins exactly at a cut of the store job, the
// versions job has tombstones, multi-table runs and a lane with no pairs
// past its first part, and the empty-part job has a part with no pairs.
func TestGoldenCasesCoverTheirCases(t *testing.T) {
	for _, tc := range goldenCases {
		job := tc.shape.job(t)
		cuts := jobCuts(t, job)
		if tc.cuts != nil {
			cuts = tc.cuts(cuts)
		}
		parts := partPairs(t, job, cuts)
		switch tc.name {
		case "store":
			if !blockAtCut(t, job, cuts) {
				t.Errorf("%s: no input block begins exactly at a cut %q", tc.name, cuts)
			}
		case "versions":
			if len(job.Runs[0]) < 2 {
				t.Errorf("%s: run 0 has %d tables, want several", tc.name, len(job.Runs[0]))
			}
			for k := 1; k < len(parts); k++ {
				if parts[k][3] != 0 {
					t.Errorf("%s: lane 3 has %d pairs in part %d, want none", tc.name, parts[k][3], k)
				}
			}
			if parts[0][3] == 0 {
				t.Errorf("%s: lane 3 has no pairs in part 0", tc.name)
			}
		case "empty-part":
			if sum(parts[2]) != 0 {
				t.Errorf("%s: part 2 has %d pairs, want none", tc.name, sum(parts[2]))
			}
		}
		for k, p := range parts {
			if tc.name != "empty-part" && sum(p) == 0 {
				t.Errorf("%s: part %d is empty", tc.name, k)
			}
		}
	}
}

// partPairs counts each run's entries per part of cuts.
func partPairs(t *testing.T, job *compaction.Job, cuts [][]byte) [][]int {
	t.Helper()
	out := make([][]int, len(cuts)+1)
	for k := range out {
		out[k] = make([]int, len(job.Runs))
	}
	tombstones := 0
	for r, run := range job.Runs {
		for _, tb := range run {
			rd, err := sstable.NewReader(tb.Data, tb.Size, job.TableOpts, nil, tb.Num)
			if err != nil {
				t.Fatal(err)
			}
			it := rd.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				k := 0
				for k < len(cuts) && keys.CompareUser(keys.UserKey(it.Key()), cuts[k]) >= 0 {
					k++
				}
				out[k][r]++
				if _, kind := keys.DecodeTrailer(it.Key()); kind == keys.KindDelete {
					tombstones++
				}
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if job.SmallestSnapshot != keys.MaxSeq && tombstones == 0 {
		t.Errorf("a job with a live snapshot has no tombstones")
	}
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// jobCuts is the cut rule over job's inputs, opened for the purpose.
func jobCuts(t *testing.T, job *compaction.Job) [][]byte {
	t.Helper()
	runs, err := compaction.OpenRuns(job)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := compaction.CutKeys(job, runs)
	if err != nil {
		t.Fatal(err)
	}
	return cuts
}
