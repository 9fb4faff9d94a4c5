package compaction

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// hotKey has many versions in every run of splitJob, enough to span
// several blocks.
const hotKey = "key000200"

// splitJob builds a randomized job for the split tests: three to five
// runs over a 400-key space, each cut into several tables at user-key
// boundaries, with tombstones, overlapping versions and hotKey written
// thirty times per run. The snapshot and the bottom-level flag vary too.
func splitJob(t *testing.T, rng *rand.Rand) *Job {
	t.Helper()
	opts := sstable.Options{BlockSize: 512, Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}
	job := &Job{
		SmallestSnapshot: uint64(100 + rng.Intn(400)),
		BottomLevel:      rng.Intn(2) == 0,
		TableOpts:        opts,
		MaxOutputBytes:   4 << 10,
	}
	runs := 3 + rng.Intn(3)
	seq := uint64(1)
	for r := runs - 1; r >= 0; r-- { // older runs get lower sequences
		users := map[string]bool{hotKey: true}
		for len(users) < 120 {
			users[fmt.Sprintf("key%06d", rng.Intn(400))] = true
		}
		sorted := make([]string, 0, len(users))
		for u := range users {
			sorted = append(sorted, u)
		}
		slices.Sort(sorted)
		var run []Table
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, opts)
		finish := func() {
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			data := append([]byte(nil), buf.Bytes()...)
			run = append(run, Table{Num: uint64(len(run) + 1), Size: int64(len(data)), Data: memReaderAt(data)})
			buf.Reset()
			w = sstable.NewWriter(&buf, opts)
		}
		for i, u := range sorted {
			versions := 1
			if u == hotKey {
				versions = 30
			}
			base := seq
			seq += uint64(versions)
			for v := versions - 1; v >= 0; v-- {
				kind := keys.KindSet
				if rng.Intn(8) == 0 {
					kind = keys.KindDelete
				}
				ik := keys.MakeInternal(nil, []byte(u), base+uint64(v), kind)
				if err := w.Add(ik, bytes.Repeat([]byte(u), 1+rng.Intn(6))); err != nil {
					t.Fatal(err)
				}
			}
			if i%40 == 39 {
				finish()
			}
		}
		finish()
		job.Runs = append([][]Table{run}, job.Runs...)
	}
	return job
}

// TestSplitMergeMatchesWholeMerge cuts randomized jobs where the cut rule
// cuts them, on a user key with many versions (and just past it), around
// an empty part, and at random keys, and holds every split merge to the
// same job merged whole: the same decoded entries in the same order and
// the same pair counts, at one core and at several.
func TestSplitMergeMatchesWholeMerge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		job := splitJob(t, rng)
		runs, err := OpenRuns(job)
		if err != nil {
			t.Fatal(err)
		}
		wholeEnv := newMemEnv()
		whole, err := mergeParts(job, runs, nil, wholeEnv)
		if err != nil {
			t.Fatal(err)
		}
		want := scan(t, wholeEnv, whole)
		if whole.Stats.PairsDropped == 0 || len(want) == 0 {
			t.Fatalf("seed %d: a merge that drops nothing tests nothing: %+v", seed, whole.Stats)
		}

		rule, err := CutKeys(job, runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rule) == 0 {
			t.Fatalf("seed %d: %d input bytes at a %d-byte table cap, no cut", seed, job.InputBytes(), job.MaxOutputBytes)
		}
		var random [][]byte
		for n := 1 + rng.Intn(5); len(random) < n; {
			k := []byte(fmt.Sprintf("key%06d", rng.Intn(420)))
			if i, found := slices.BinarySearchFunc(random, k, bytes.Compare); !found {
				random = slices.Insert(random, i, k)
			}
		}
		cutSets := map[string][][]byte{
			"rule":       rule,
			"hot":        {[]byte(hotKey)},
			"past hot":   {[]byte(hotKey), []byte(hotKey + "\x00")},
			"empty head": {[]byte("a"), []byte(hotKey)},
			"empty mid":  {[]byte("key000100x"), []byte("key000100y"), []byte(hotKey)},
			"random":     random,
		}
		for name, cuts := range cutSets {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				env := newMemEnv()
				res, err := mergeParts(job, runs, cuts, env)
				if err != nil {
					t.Fatalf("seed %d, %s cuts, %d procs: %v", seed, name, procs, err)
				}
				if res.Stats.Parts != len(cuts)+1 {
					t.Errorf("seed %d, %s cuts: %d parts, want %d", seed, name, res.Stats.Parts, len(cuts)+1)
				}
				w, g := whole.Stats, res.Stats
				if g.PairsIn != w.PairsIn || g.PairsOut != w.PairsOut || g.PairsDropped != w.PairsDropped || g.BytesRead != w.BytesRead {
					t.Errorf("seed %d, %s cuts, %d procs: stats %+v, whole merge %+v", seed, name, procs, g, w)
				}
				if got := scan(t, env, res); !slices.Equal(got, want) {
					t.Errorf("seed %d, %s cuts %q, %d procs: %d entries differ from the whole merge's %d",
						seed, name, cuts, procs, len(got), len(want))
				}
				var written int64
				for _, ot := range res.Outputs {
					written += ot.Size
					if int64(env.files[ot.Num].Len()) != ot.Size {
						t.Errorf("seed %d, %s cuts: table %d holds %d bytes, reports %d", seed, name, ot.Num, env.files[ot.Num].Len(), ot.Size)
					}
				}
				if written != g.BytesWritten {
					t.Errorf("seed %d, %s cuts: tables sum to %d bytes, BytesWritten %d", seed, name, written, g.BytesWritten)
				}
			}
		}
	}
}

// TestCutRule pins what the cut rule reads: the part count from the job's
// size alone (a power of two up to 16, a part per table of input or per
// 512 KiB, whichever is smaller), and cuts strictly ascending and the
// same on every call.
func TestCutRule(t *testing.T) {
	job := splitJob(t, rand.New(rand.NewSource(1)))
	in := uint64(job.InputBytes())
	if in >= 512<<10 {
		t.Fatalf("a %d-byte job is cut per 512 KiB, not per table", in)
	}
	for _, tc := range []struct {
		maxOut uint64
		parts  int
	}{{0, 1}, {in + 1, 1}, {in, 1}, {in / 2, 2}, {in / 3, 2}, {in / 4, 4}, {in / 8, 8}, {in / 15, 8}, {in / 16, 16}, {in / 100, 16}} {
		job.MaxOutputBytes = tc.maxOut
		if got := PartCount(job); got != tc.parts {
			t.Errorf("MaxOutputBytes %d of %d input bytes: %d parts, want %d", tc.maxOut, in, got, tc.parts)
		}
		cuts := cutsOf(t, job)
		if len(cuts) > tc.parts-1 {
			t.Errorf("%d parts, %d cuts", tc.parts, len(cuts))
		}
		for i := 1; i < len(cuts); i++ {
			if bytes.Compare(cuts[i-1], cuts[i]) >= 0 {
				t.Errorf("cuts %q are not strictly ascending", cuts)
			}
		}
		again := cutsOf(t, job)
		if !slices.EqualFunc(cuts, again, bytes.Equal) {
			t.Errorf("cuts %q, then %q", cuts, again)
		}
	}
	// At the store's 2 MiB tables a part takes 512 KiB.
	for _, tc := range []struct {
		in    int64
		parts int
	}{{512<<10 - 1, 1}, {1 << 20, 2}, {7 << 20, 8}, {64 << 20, 16}} {
		store := &Job{Runs: [][]Table{{{Size: tc.in}}}, MaxOutputBytes: 2 << 20}
		if got := PartCount(store); got != tc.parts {
			t.Errorf("%d input bytes at 2 MiB tables: %d parts, want %d", tc.in, got, tc.parts)
		}
	}
}

// cutsOf is CutKeys over job's inputs, opened for the purpose.
func cutsOf(t *testing.T, job *Job) [][]byte {
	t.Helper()
	runs, err := OpenRuns(job)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := CutKeys(job, runs)
	if err != nil {
		t.Fatal(err)
	}
	return cuts
}

// goid is the calling goroutine's id, read off its stack header.
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1] // "goroutine N [running]:"
}

// TestRunPartsBalancesUnequalWorkers runs 16 parts on two goroutines, one
// of them four times slower at every part: the faster must claim more of
// them, and direct and drain must still see every part once, in key
// order, on the calling goroutine. Either goroutine is the slow one in
// turn. A merge's bytes do not depend on who merged which part
// (TestCutListDecidesBytes); this is how the parts are shared.
func TestRunPartsBalancesUnequalWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const parts = 16
	for _, slowCaller := range []bool{true, false} {
		caller := goid()
		var mu sync.Mutex
		claimed := map[bool]int{} // by the caller or not
		var order []int           // parts as direct or drain saw them
		work := func() {
			onCaller := goid() == caller
			d := time.Millisecond
			if onCaller == slowCaller {
				d *= 4
			}
			time.Sleep(d)
			mu.Lock()
			claimed[onCaller]++
			mu.Unlock()
		}
		see := func(k int) error {
			if goid() != caller {
				t.Errorf("part %d reached direct or drain off the calling goroutine", k)
			}
			order = append(order, k)
			return nil
		}
		err := RunParts(parts,
			func(k int) error { work(); return see(k) },
			func(k int) { work() },
			see)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, parts)
		for k := range want {
			want[k] = k
		}
		if !slices.Equal(order, want) {
			t.Errorf("slow caller %v: parts reached direct and drain as %v", slowCaller, order)
		}
		fast, slow := claimed[!slowCaller], claimed[slowCaller]
		if fast <= slow {
			t.Errorf("slow caller %v: the faster goroutine merged %d parts, the slower %d", slowCaller, fast, slow)
		}
		t.Logf("slow caller %v: the faster goroutine merged %d of %d parts", slowCaller, fast, parts)
	}
}
