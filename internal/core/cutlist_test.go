package core

import (
	"bytes"
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// cutListJobs are storeJob-shaped jobs cut into four parts with a table
// cap of a quarter of the input: the plain store job, and one with
// tombstones under a live snapshot, runs of several tables and a lane
// with no pairs past its first part.
func cutListJobs(t *testing.T) map[string]*compaction.Job {
	return map[string]*compaction.Job{
		"store":    storeShape{entries: 600}.job(t),
		"versions": storeShape{entries: 600, versions: true, tableEntries: 170, shortRun: 3}.job(t),
	}
}

// TestCutListDecidesBytes holds a job's files to a function of the job
// and its cut list alone: the CPU lane at GOMAXPROCS 1, 2 and 4, the
// engine lane at each of them (its Stats and cycle count equal, not
// close), and a merge on one goroutine that knows nothing of parts — one
// heap over every entry, an encoder flushed where the user key reaches a
// cut — write the same bytes. A table ends only when full: it goes on
// across any cut it reaches before.
func TestCutListDecidesBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, job := range cutListJobs(t) {
		cuts := jobCuts(t, job)
		if len(cuts) != 3 {
			t.Fatalf("%s: cut at %q, want 3 cuts", name, cuts)
		}
		refEnv := newMemEnv()
		ref := oneGoroutineMerge(t, job, cuts, refEnv)
		spans := 0
		for i, ot := range ref.Outputs {
			file := refEnv.files[ot.Num].Bytes()
			if i < len(ref.Outputs)-1 && !tableFull(t, file, int64(job.MaxOutputBytes)) {
				t.Errorf("%s: table %d of %d ends before it is full", name, i, len(ref.Outputs))
			}
			for _, c := range cuts {
				if keys.CompareUser(keys.UserKey(ot.Smallest), c) < 0 && keys.CompareUser(c, keys.UserKey(ot.Largest)) <= 0 {
					spans++
				}
			}
		}
		if len(ref.Outputs) < 3 || spans == 0 {
			t.Fatalf("%s: %d tables spanning %d cuts: the job shows nothing", name, len(ref.Outputs), spans)
		}

		var engineStats compaction.Stats
		var engineCycles float64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			env := newMemEnv()
			res, err := compaction.CPU{}.Compact(job, env)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/cpu/procs=%d", name, procs), func(t *testing.T) { requireSameFiles(t, refEnv, ref, env, res) })

			x, err := NewExecutor(MultiInputConfig())
			if err != nil {
				t.Fatal(err)
			}
			env = newMemEnv()
			res, err = x.Compact(job, env)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/engine/procs=%d", name, procs), func(t *testing.T) { requireSameFiles(t, refEnv, ref, env, res) })
			_, cycles, _, _ := x.Totals()
			if procs == 1 {
				engineStats, engineCycles = res.Stats, cycles
			} else if res.Stats != engineStats || cycles != engineCycles {
				t.Errorf("%s: engine lane at %d procs: %+v in %v cycles, at 1 proc %+v in %v", name, procs, res.Stats, cycles, engineStats, engineCycles)
			}
		}
	}
}

// tableFull reports whether the data blocks of the table in file make it
// sstable.TableFull at limit.
func tableFull(t *testing.T, file []byte, limit int64) bool {
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
	for _, b := range l.Blocks {
		sealed += sstable.SealedSize(b.PayloadLen)
	}
	return sstable.TableFull(sealed, limit)
}

// oneGoroutineMerge merges job whole on the calling goroutine, with none
// of the lanes' machinery but the Validity Check, the block encoder and
// the stitcher: every input entry into one heap, and the open block
// flushed where the user key reaches the next cut.
func oneGoroutineMerge(t *testing.T, job *compaction.Job, cuts [][]byte, env *memEnv) *compaction.Result {
	t.Helper()
	var h entryHeap
	for _, run := range job.Runs {
		for _, tb := range run {
			r, err := sstable.NewReader(tb.Data, tb.Size, job.TableOpts, nil, tb.Num)
			if err != nil {
				t.Fatal(err)
			}
			it := r.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				h = append(h, [2][]byte{slices.Clone(it.Key()), slices.Clone(it.Value())})
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap.Init(&h)
	res := &compaction.Result{}
	tables := compaction.NewTables(job, env, res)
	enc := compaction.GetBlockEncoder(job.TableOpts, job.TableOpts.FilterBitsPerKey > 0)
	defer enc.Release()
	add := func(b *compaction.Block) {
		if b != nil {
			if err := tables.Add(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	drop := compaction.DropPolicy{SmallestSnapshot: job.SmallestSnapshot, BottomLevel: job.BottomLevel}
	for h.Len() > 0 {
		e := heap.Pop(&h).([2][]byte)
		for len(cuts) > 0 && keys.CompareUser(keys.UserKey(e[0]), cuts[0]) >= 0 {
			add(enc.Flush())
			cuts = cuts[1:]
		}
		if !drop.Drop(e[0]) {
			add(enc.Add(e[0], e[1]))
		}
	}
	add(enc.Flush())
	if err := tables.Finish(); err != nil {
		t.Fatal(err)
	}
	return res
}

// entryHeap orders (internal key, value) pairs by internal key.
type entryHeap [][2][]byte

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return keys.Compare(h[i][0], h[j][0]) < 0 }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.([2][]byte)) }
func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestStagedCutsMatchCutKeys: the engine lane lists its inputs' blocks
// for the cut rule while it stages them, instead of reading their index
// blocks again through compaction.CutKeys. The cuts must be CutKeys' own,
// byte for byte, on jobs of one table per run and of several.
func TestStagedCutsMatchCutKeys(t *testing.T) {
	jobs := cutListJobs(t)
	straddling := straddlingJob(t)
	straddling.MaxOutputBytes = uint64(straddling.InputBytes() / 4)
	jobs["straddling"] = straddling
	for name, job := range jobs {
		runs, err := compaction.OpenRuns(job)
		if err != nil {
			t.Fatal(err)
		}
		want, err := compaction.CutKeys(job, runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: CutKeys cuts nothing", name)
		}
		x, err := NewExecutor(MultiInputConfig())
		if err != nil {
			t.Fatal(err)
		}
		x.mu.Lock()
		_, got, err := x.stageLocked(job, runs)
		x.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("%s: staging cuts at %q, CutKeys at %q", name, got, want)
		}
	}
}
