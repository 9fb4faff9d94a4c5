package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// memReaderAt adapts a byte slice for table input.
type memReaderAt []byte

func (m memReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m)) {
		return 0, fmt.Errorf("read past end")
	}
	n := copy(p, m[off:])
	if n < len(p) {
		return n, fmt.Errorf("short read")
	}
	return n, nil
}

// memEnv implements compaction.Env, collecting outputs in memory.
type memEnv struct {
	next  uint64
	files map[uint64]*bytes.Buffer
	order []uint64
}

func newMemEnv() *memEnv { return &memEnv{next: 100, files: map[uint64]*bytes.Buffer{}} }

type bufCloser struct{ *bytes.Buffer }

func (bufCloser) Close() error { return nil }

func (e *memEnv) NewOutput() (uint64, io.WriteCloser, error) {
	num := e.next
	e.next++
	buf := &bytes.Buffer{}
	e.files[num] = buf
	e.order = append(e.order, num)
	return num, bufCloser{buf}, nil
}

type entry struct {
	user  string
	seq   uint64
	kind  keys.Kind
	value string
}

// buildTable renders entries (must be sorted by internal key) into a table.
func buildTable(t *testing.T, opts sstable.Options, entries []entry) compaction.Table {
	t.Helper()
	var buf bytes.Buffer
	w := sstable.NewWriter(&buf, opts)
	for _, e := range entries {
		ik := keys.MakeInternal(nil, []byte(e.user), e.seq, e.kind)
		if err := w.Add(ik, []byte(e.value)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return compaction.Table{Num: 1, Size: int64(buf.Len()), Data: memReaderAt(buf.Bytes())}
}

// scanOutputs reads every output table in creation order and returns the
// concatenated entries.
func scanOutputs(t *testing.T, e *memEnv, res *compaction.Result) []entry {
	t.Helper()
	var out []entry
	for _, ot := range res.Outputs {
		buf := e.files[ot.Num]
		r, err := sstable.NewReader(memReaderAt(buf.Bytes()), int64(buf.Len()), sstable.Options{}, nil, ot.Num)
		if err != nil {
			t.Fatalf("open output %d: %v", ot.Num, err)
		}
		it := r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			seq, kind := keys.DecodeTrailer(it.Key())
			out = append(out, entry{
				user:  string(keys.UserKey(it.Key())),
				seq:   seq,
				kind:  kind,
				value: string(it.Value()),
			})
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// genRun produces n sorted unique-keyed entries with the given prefix.
func genRun(prefix string, n, valueLen int, seqBase uint64) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{
			user:  fmt.Sprintf("%s%08d", prefix, i*3),
			seq:   seqBase + uint64(i),
			kind:  keys.KindSet,
			value: fmt.Sprintf("%0*d", valueLen, i),
		}
	}
	return out
}

func defaultJob(runs ...[]compaction.Table) *compaction.Job {
	return &compaction.Job{
		Runs:             runs,
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10},
		MaxOutputBytes:   2 << 20,
	}
}

// shadowingJob is two interleaved runs with overlapping key space and
// some shadowing.
func shadowingJob(t *testing.T) *compaction.Job {
	opts := sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}
	runA := genRun("key-a", 600, 64, 1000)
	runB := genRun("key-a", 400, 64, 5000) // same prefix: overlaps and shadows
	for i := range runB {
		runB[i].user = fmt.Sprintf("key-a%08d", i*5)
	}
	tA := buildTable(t, opts, runA)
	tB := buildTable(t, opts, runB)
	return defaultJob([]compaction.Table{tA}, []compaction.Table{tB})
}

// requireSameFiles fails unless a and b hold the same output tables: equal
// file bytes, and the same size, entry count and bounds reported for each.
func requireSameFiles(t *testing.T, envA *memEnv, a *compaction.Result, envB *memEnv, b *compaction.Result) {
	t.Helper()
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("%d output tables against %d", len(a.Outputs), len(b.Outputs))
	}
	for i, oa := range a.Outputs {
		ob := b.Outputs[i]
		fa, fb := envA.files[oa.Num].Bytes(), envB.files[ob.Num].Bytes()
		if !bytes.Equal(fa, fb) {
			n := 0
			for n < len(fa) && n < len(fb) && fa[n] == fb[n] {
				n++
			}
			t.Fatalf("output %d: files of %d and %d bytes part at offset %d", i, len(fa), len(fb), n)
		}
		if oa.Size != ob.Size || oa.Entries != ob.Entries ||
			!bytes.Equal(oa.Smallest, ob.Smallest) || !bytes.Equal(oa.Largest, ob.Largest) {
			t.Fatalf("output %d described differently: %+v against %+v", i, oa, ob)
		}
	}
}

// TestEngineMatchesCPUBytesWhenSplit holds the engine lane to the CPU
// lane's files on jobs the cut rule splits: at a table cap of a quarter
// of the input both lanes cut the job into four parts, the CPU lane
// merging them apart and the engine ending a table at each cut. The
// straddling job's blocks end between versions of one user key, so its
// cuts fall on keys with many versions.
func TestEngineMatchesCPUBytesWhenSplit(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  *compaction.Job
	}{{"shadowing", shadowingJob(t)}, {"straddling", straddlingJob(t)}} {
		job := *tc.job
		job.MaxOutputBytes = uint64(job.InputBytes() / 4)
		cuts := jobCuts(t, &job)
		if len(cuts) != 3 {
			t.Fatalf("%s: cut at %q, want 3 cuts", tc.name, cuts)
		}
		cpuEnv := newMemEnv()
		cpuRes, err := compaction.CPU{}.Compact(&job, cpuEnv)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{DefaultConfig(), MultiInputConfig()} {
			t.Run(fmt.Sprintf("%s/N=%d", tc.name, cfg.N), func(t *testing.T) {
				fx, err := NewExecutor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				env := newMemEnv()
				res, err := fx.Compact(&job, env)
				if err != nil {
					t.Fatal(err)
				}
				if cpuRes.Stats.Parts != 4 || res.Stats.Parts != 4 {
					t.Fatalf("parts: cpu %d, fcae %d, want 4", cpuRes.Stats.Parts, res.Stats.Parts)
				}
				requireSameFiles(t, cpuEnv, cpuRes, env, res)
				if res.Stats.PairsIn != cpuRes.Stats.PairsIn ||
					res.Stats.PairsOut != cpuRes.Stats.PairsOut ||
					res.Stats.PairsDropped != cpuRes.Stats.PairsDropped {
					t.Fatalf("stats diverge: cpu=%+v fcae=%+v", cpuRes.Stats, res.Stats)
				}
			})
		}
	}
}

// straddlingJob is two runs holding 48 versions of each of 30 user keys,
// all of them above the job's SmallestSnapshot and so all kept: a user key
// spans more than one 4 KiB block, so blocks end between two versions of
// one key (whose index key cannot be shortened) and a table that fills
// mid-key has to wait, sealing further blocks, for the key to end.
func straddlingJob(t *testing.T) *compaction.Job {
	rng := rand.New(rand.NewSource(7))
	var newer, older []entry
	for u := 0; u < 30; u++ {
		user := fmt.Sprintf("user%04d", u*7)
		for v := 24; v > 0; v-- {
			val := make([]byte, 100)
			rng.Read(val)
			newer = append(newer, entry{user, uint64(1000 + v), keys.KindSet, string(val)})
			older = append(older, entry{user, uint64(v), keys.KindSet, string(val[:60])})
		}
	}
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := defaultJob([]compaction.Table{buildTable(t, opts, newer)}, []compaction.Table{buildTable(t, opts, older)})
	job.SmallestSnapshot, job.BottomLevel = 0, false
	return job
}

// filledBeforeLastBlock reports whether the table in file became full
// (sstable.TableFull at limit) on sealing a block that is not its last:
// the entry after that block was another version of the block's last user
// key, and the table had to stay open for it.
func filledBeforeLastBlock(t *testing.T, file []byte, limit int64) bool {
	t.Helper()
	r, err := sstable.NewReader(memReaderAt(file), int64(len(file)), sstable.Options{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := r.Layout()
	if err != nil {
		t.Fatal(err)
	}
	var sealed int64
	for i, b := range l.Blocks {
		sealed += sstable.SealedSize(b.PayloadLen)
		if sstable.TableFull(sealed, limit) {
			return i < len(l.Blocks)-1
		}
	}
	return false
}

// TestEngineMatchesCPUBytes holds the engine lane to the CPU lane's bytes:
// the same job through compaction.CPU and through core.Executor — either
// engine shape, staging arena on and off — leaves the same files. Which
// lane ran a compaction cannot be read off the disk.
func TestEngineMatchesCPUBytes(t *testing.T) {
	plain := shadowingJob(t)
	plain.TableOpts.Compression = sstable.NoCompression
	for _, tc := range []struct {
		name      string
		job       *compaction.Job
		limit     uint64 // 2 MiB leaves one table; the others cut three or more
		straddles bool   // some table must fill in the middle of a user key
	}{
		{"shadowing/one-table", shadowingJob(t), 2 << 20, false},
		{"shadowing/cut", shadowingJob(t), 2 << 10, false},
		{"uncompressed/one-table", plain, 2 << 20, false},
		{"uncompressed/cut", plain, 16 << 10, false},
		{"straddling/cut", straddlingJob(t), 6 << 10, true},
	} {
		job := *tc.job
		job.MaxOutputBytes = tc.limit
		cpuEnv := newMemEnv()
		cpuRes, err := compaction.CPU{}.Compact(&job, cpuEnv)
		if err != nil {
			t.Fatal(err)
		}
		if n, cut := len(cpuRes.Outputs), tc.limit < 2<<20; (cut && n < 3) || (!cut && n != 1) {
			t.Fatalf("%s: %d output tables at a limit of %d", tc.name, n, tc.limit)
		}
		if tc.straddles {
			waited := false
			for _, ot := range cpuRes.Outputs {
				waited = waited || filledBeforeLastBlock(t, cpuEnv.files[ot.Num].Bytes(), int64(tc.limit))
			}
			if !waited {
				t.Fatalf("%s: no table filled in the middle of a user key's versions", tc.name)
			}
		}
		for _, cfg := range []Config{DefaultConfig(), MultiInputConfig()} {
			for _, staging := range []int64{0, -1} {
				cfg.StagingBytes = staging
				t.Run(fmt.Sprintf("%s/N=%d/staging=%d", tc.name, cfg.N, staging), func(t *testing.T) {
					fx, err := NewExecutor(cfg)
					if staging < 0 {
						// An executor always stages in its arena: the
						// heap staging mode a negative size once chose
						// is refused.
						if !errors.Is(err, ErrConfig) {
							t.Fatalf("NewExecutor with StagingBytes %d: err = %v, want ErrConfig", staging, err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					env := newMemEnv()
					res, err := fx.Compact(&job, env)
					if err != nil {
						t.Fatal(err)
					}
					requireSameFiles(t, cpuEnv, cpuRes, env, res)
					if res.Stats.PairsIn != cpuRes.Stats.PairsIn ||
						res.Stats.PairsOut != cpuRes.Stats.PairsOut ||
						res.Stats.PairsDropped != cpuRes.Stats.PairsDropped ||
						res.Stats.BytesWritten != cpuRes.Stats.BytesWritten {
						t.Fatalf("stats diverge: cpu=%+v fcae=%+v", cpuRes.Stats, res.Stats)
					}
					if res.Stats.KernelTime <= 0 || res.Stats.TransferTime <= 0 {
						t.Fatal("FCAE must report modeled kernel and transfer times")
					}
				})
			}
		}
	}
}

func TestEngineDropsShadowedAndDeleted(t *testing.T) {
	opts := sstable.Options{}
	newRun := []entry{
		{"a", 10, keys.KindSet, "new-a"},
		{"b", 11, keys.KindDelete, ""},
	}
	oldRun := []entry{
		{"a", 2, keys.KindSet, "old-a"},
		{"b", 3, keys.KindSet, "old-b"},
		{"c", 4, keys.KindSet, "old-c"},
	}
	job := defaultJob([]compaction.Table{buildTable(t, opts, newRun)}, []compaction.Table{buildTable(t, opts, oldRun)})
	job.TableOpts = opts

	fx, err := NewExecutor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := newMemEnv()
	res, err := fx.Compact(job, env)
	if err != nil {
		t.Fatal(err)
	}
	got := scanOutputs(t, env, res)
	want := []entry{{"a", 10, keys.KindSet, "new-a"}, {"c", 4, keys.KindSet, "old-c"}}
	if len(got) != len(want) {
		t.Fatalf("got %d entries %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if res.Stats.PairsDropped != 3 {
		t.Fatalf("PairsDropped = %d, want 3 (old-a, delete-b, old-b)", res.Stats.PairsDropped)
	}
}

func TestEngineKeepsEntriesAboveSnapshot(t *testing.T) {
	opts := sstable.Options{}
	run := []entry{
		{"k", 20, keys.KindSet, "v20"},
		{"k", 10, keys.KindSet, "v10"},
		{"k", 3, keys.KindSet, "v3"},
	}
	job := defaultJob([]compaction.Table{buildTable(t, opts, run)}, nil)
	job.Runs = job.Runs[:1]
	job.TableOpts = opts
	job.SmallestSnapshot = 10 // a snapshot at seq 10 still needs v10

	fx, _ := NewExecutor(DefaultConfig())
	env := newMemEnv()
	res, err := fx.Compact(job, env)
	if err != nil {
		t.Fatal(err)
	}
	got := scanOutputs(t, env, res)
	if len(got) != 2 || got[0].seq != 20 || got[1].seq != 10 {
		t.Fatalf("snapshot merge kept %v", got)
	}
	_ = res
}

func TestEngineRejectsTooManyInputs(t *testing.T) {
	opts := sstable.Options{}
	var runs [][]compaction.Table
	for i := 0; i < 3; i++ {
		runs = append(runs, []compaction.Table{buildTable(t, opts, genRun(fmt.Sprintf("r%d", i), 5, 8, uint64(i*100)))})
	}
	job := defaultJob(runs...)
	fx, _ := NewExecutor(DefaultConfig()) // N=2
	if _, err := fx.Compact(job, newMemEnv()); err == nil {
		t.Fatal("3-run job accepted by 2-input engine")
	}
}

func TestEngineMultiTableRunConcatenation(t *testing.T) {
	// A run of two disjoint tables must behave as one concatenated input
	// (paper §IV step 2).
	opts := sstable.Options{}
	t1 := buildTable(t, opts, genRun("a", 100, 16, 1))
	t2 := buildTable(t, opts, genRun("b", 100, 16, 200))
	job := defaultJob([]compaction.Table{t1, t2}, []compaction.Table{buildTable(t, opts, genRun("ab", 50, 16, 500))})
	job.TableOpts = opts

	fx, _ := NewExecutor(DefaultConfig())
	env := newMemEnv()
	res, err := fx.Compact(job, env)
	if err != nil {
		t.Fatal(err)
	}
	got := scanOutputs(t, env, res)
	if len(got) != 250 {
		t.Fatalf("merged %d entries, want 250", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].user < got[j].user }) {
		t.Fatal("output not sorted")
	}
}

func TestEngineSplitsOutputTables(t *testing.T) {
	opts := sstable.Options{}
	job := defaultJob([]compaction.Table{buildTable(t, opts, genRun("k", 3000, 256, 1))})
	job.TableOpts = opts
	job.MaxOutputBytes = 64 << 10 // force multiple outputs

	fx, _ := NewExecutor(DefaultConfig())
	env := newMemEnv()
	res, err := fx.Compact(job, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) < 5 {
		t.Fatalf("expected several output tables, got %d", len(res.Outputs))
	}
	// Outputs must be disjoint and ascending.
	for i := 1; i < len(res.Outputs); i++ {
		prev, cur := res.Outputs[i-1], res.Outputs[i]
		if keys.Compare(prev.Largest, cur.Smallest) >= 0 {
			t.Fatalf("output %d overlaps previous", i)
		}
	}
	if got := scanOutputs(t, env, res); len(got) != 3000 {
		t.Fatalf("outputs hold %d entries, want 3000", len(got))
	}
}

func TestKeyValueSeparationAblation(t *testing.T) {
	// With long values, disabling key-value separation (§V-C) must slow
	// the engine substantially: values then ride through the Comparer.
	off := DefaultConfig()
	off.NoKeyValueSeparation = true
	for _, lv := range []int{512, 2048} {
		on, off := perPair(t, DefaultConfig(), 2, 16, lv), perPair(t, off, 2, 16, lv)
		if ratio := off / on; ratio < 2 {
			t.Fatalf("Lvalue=%d: expected >2x benefit from key-value separation, got %.2fx", lv, ratio)
		}
	}
}

func TestIndexSeparationAblation(t *testing.T) {
	on := DefaultConfig()
	off := DefaultConfig()
	off.NoIndexDataSeparation = true
	if on.blockSwitchCycles() >= off.blockSwitchCycles() {
		t.Fatal("index/data separation must hide index fetch latency")
	}
}

func TestEngineEmptyInput(t *testing.T) {
	eng, _ := NewEngine(DefaultConfig())
	res, err := eng.Run(nil, Params{})
	if err != nil || res.Stats != (Stats{}) {
		t.Fatalf("empty run: %v, %+v", err, res.Stats)
	}
}

func TestEngineRandomizedEquivalence(t *testing.T) {
	// Property: for random overlapping runs, the FCAE lane writes the CPU
	// lane's files.
	rng := rand.New(rand.NewSource(42))
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	for trial := 0; trial < 5; trial++ {
		nRuns := 9 // the engine's full fan-in first, then 2 to 9 inputs
		if trial > 0 {
			nRuns = 2 + rng.Intn(8)
		}
		var runs [][]compaction.Table
		seq := uint64(1)
		for r := 0; r < nRuns; r++ {
			n := 50 + rng.Intn(300)
			es := make([]entry, 0, n)
			used := map[string]bool{}
			for i := 0; i < n; i++ {
				u := fmt.Sprintf("key%06d", rng.Intn(2000))
				if used[u] {
					continue
				}
				used[u] = true
				kind := keys.KindSet
				if rng.Intn(5) == 0 {
					kind = keys.KindDelete
				}
				es = append(es, entry{u, seq, kind, fmt.Sprintf("v%d", rng.Intn(1000))})
				seq++
			}
			sort.Slice(es, func(i, j int) bool { return es[i].user < es[j].user })
			runs = append(runs, []compaction.Table{buildTable(t, opts, es)})
		}
		job := defaultJob(runs...)
		job.BottomLevel = trial%2 == 0
		job.MaxOutputBytes = uint64(1<<10 + rng.Intn(3<<10))

		cpuEnv := newMemEnv()
		cpuRes, err := compaction.CPU{}.Compact(job, cpuEnv)
		if err != nil {
			t.Fatal(err)
		}
		fx, _ := NewExecutor(MultiInputConfig())
		fEnv := newMemEnv()
		fRes, err := fx.Compact(job, fEnv)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("trial %d: %d runs, bottom level %v, %d output tables", trial, nRuns, job.BottomLevel, len(cpuRes.Outputs))
		requireSameFiles(t, cpuEnv, cpuRes, fEnv, fRes)
	}
}

func TestEngineRejectsCorruptDeviceImage(t *testing.T) {
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	table := buildTable(t, opts, genRun("k", 500, 64, 1))
	img, err := BuildInputImage([]compaction.Table{table}, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine(DefaultConfig())

	// Corrupt a compressed block payload: snappy decode must fail loudly.
	corrupted := *img
	corrupted.DataMem = append([]byte(nil), img.DataMem...)
	entries, err := corrupted.DecodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	off := entries[0].Offset + 3
	corrupted.DataMem[off] ^= 0xff
	if _, err := eng.Run([]*InputImage{&corrupted}, Params{}); err == nil {
		t.Fatal("corrupted block payload accepted")
	}

	// Truncate the index stream: layout error.
	truncated := *img
	truncated.Tables = append([]TableDesc(nil), img.Tables...)
	truncated.Tables[0].IndexLen = 2
	truncated.Tables[0].NumBlocks = 3
	if _, err := eng.Run([]*InputImage{&truncated}, Params{}); err == nil {
		t.Fatal("truncated index stream accepted")
	}

	// Out-of-range block reference.
	oob := *img
	oob.IndexMem = appendIndexEntry(nil, IndexEntry{IndexKey: []byte("x"), Offset: 1 << 40, Size: 64})
	oob.Tables = []TableDesc{{IndexOff: 0, IndexLen: uint64(len(oob.IndexMem)), NumBlocks: 1}}
	if _, err := eng.Run([]*InputImage{&oob}, Params{}); err == nil {
		t.Fatal("out-of-range block reference accepted")
	}
}

func TestEngineStageBusyAccounting(t *testing.T) {
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := defaultJob(
		[]compaction.Table{buildTable(t, opts, genRun("a", 1500, 512, 1))},
		[]compaction.Table{buildTable(t, opts, genRun("b", 1500, 512, 50_000))},
	)
	cfg := DefaultConfig()
	eng, _ := NewEngine(cfg)
	var images []*InputImage
	for _, r := range job.Runs {
		img, err := BuildInputImage(r, cfg.WIn, job.TableOpts)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	res, err := eng.Run(images, Params{Compress: true, SmallestSnapshot: keys.MaxSeq})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	for name, busy := range map[string]float64{
		"decoder": st.DecoderBusy, "comparer": st.ComparerBusy,
		"transfer": st.TransferBusy, "encoder": st.EncoderBusy,
	} {
		if busy <= 0 {
			t.Errorf("stage %s reported no busy cycles", name)
		}
		if busy > st.Cycles*1.01 {
			t.Errorf("stage %s busier (%.0f) than the whole run (%.0f)", name, busy, st.Cycles)
		}
	}
	// At 512-byte values the decoder should dominate (paper §V-D1).
	if st.DecoderBusy < st.ComparerBusy {
		t.Error("decoder should be the busiest stage at 512-byte values")
	}
	if st.BytesOut <= 0 || st.BytesIn <= 0 {
		t.Error("byte accounting missing")
	}
}

func TestEngineTrace(t *testing.T) {
	opts := sstable.Options{}
	job := defaultJob(
		[]compaction.Table{buildTable(t, opts, genRun("a", 50, 32, 1))},
		[]compaction.Table{buildTable(t, opts, genRun("b", 50, 32, 100))},
	)
	cfg := DefaultConfig()
	eng, _ := NewEngine(cfg)
	var images []*InputImage
	for _, r := range job.Runs {
		img, err := BuildInputImage(r, cfg.WIn, job.TableOpts)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	var trace bytes.Buffer
	_, err := eng.Run(images, Params{
		SmallestSnapshot: keys.MaxSeq,
		TraceWriter:      &trace,
		TraceLimit:       20,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(trace.Bytes()), []byte("\n"))
	if len(lines) != 21 { // header + 20 selections
		t.Fatalf("trace has %d lines, want 21", len(lines))
	}
	if !bytes.HasPrefix(lines[0], []byte("pair,lane")) {
		t.Fatalf("bad trace header: %s", lines[0])
	}
	// Timestamps on each line must be monotone within the pipeline.
	for _, line := range lines[1:] {
		fields := bytes.Split(line, []byte(","))
		if len(fields) != 10 {
			t.Fatalf("bad trace line: %s", line)
		}
	}
}
