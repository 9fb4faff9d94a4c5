package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/obs"
)

// jobRecorder keeps every CompactionBegin and the user-key bounds of every
// table it has seen in a version. A store whose only compactions are
// manual runs one job at a time and delivers its end before the next
// pick, so a table's bounds are known before any job reads it.
type jobRecorder struct {
	obs.NoopListener
	db atomic.Pointer[DB]

	mu     sync.Mutex
	begins []obs.CompactionBeginEvent
	bounds map[uint64][2][]byte // smallest and largest user key, inclusive
}

func (r *jobRecorder) note() {
	db := r.db.Load()
	if db == nil {
		return
	}
	v := db.vs.Current()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, files := range v.Levels {
		for _, f := range files {
			r.bounds[f.Num] = [2][]byte{keys.UserKey(f.Smallest), keys.UserKey(f.Largest)}
		}
	}
}

func (r *jobRecorder) FlushEnd(obs.FlushEndEvent)           { r.note() }
func (r *jobRecorder) CompactionEnd(obs.CompactionEndEvent) { r.note() }
func (r *jobRecorder) CompactionBegin(e obs.CompactionBeginEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.begins = append(r.begins, e)
}

// manualTree opens a store whose only compactions are the manual calls
// made here: L6 holds a first pass over 3000 keys, L2 the low tables of a
// second, and L1 the rest of the second merged with a third.
func manualTree(t *testing.T, listener obs.EventListener) (*DB, map[string]string) {
	t.Helper()
	opts := smallOpts()
	// No level reaches its budget and no fill reaches the L0 trigger.
	opts.BaseLevelBytes = 1 << 30
	opts.L0CompactionTrigger, opts.L0SlowdownTrigger, opts.L0StopTrigger = 64, 64, 64
	opts.EventListener = listener
	db := openTest(t, opts)
	want := make(map[string]string)
	fill := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		val := make([]byte, 100)
		for _, i := range rng.Perm(3000) {
			rng.Read(val)
			k := fmt.Sprintf("key%06d", i)
			if err := db.Put([]byte(k), val); err != nil {
				t.Fatal(err)
			}
			want[k] = string(val)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	compact := func(level, times int) {
		for i := 0; i < times; i++ {
			if err := db.CompactLevel(level); err != nil {
				t.Fatalf("CompactLevel(%d): %v", level, err)
			}
		}
	}
	fill(1)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	fill(2)
	compact(0, 1)
	compact(1, 4)
	fill(3)
	compact(0, 1)
	v := db.vs.Current()
	for _, level := range []int{1, 2, manifest.NumLevels - 1} {
		if v.NumFiles(level) < 4 {
			t.Fatalf("setup: L%d holds %d tables, want at least 4 (levels %v)", level, v.NumFiles(level), db.LevelFiles())
		}
	}
	return db, want
}

// touchesRange reports whether user-key bounds [b[0], b[1]] meet r.
func touchesRange(b [2][]byte, r keys.Range) bool {
	return keys.CompareUser(b[0], r.Limit) < 0 && keys.CompareUser(b[1], r.Start) >= 0
}

// TestCompactRangeTouchesOnlyItsRange: a narrow CompactRange over a store
// with tables at L1, L2 and L6 takes, below L0, only tables holding keys
// in the range, and leaves every L1+ table that neither touches the range
// nor lies under a job's source tables where it was, under its number.
// Afterwards no level but the last holds keys in the range.
func TestCompactRangeTouchesOnlyItsRange(t *testing.T) {
	rec := &jobRecorder{bounds: make(map[uint64][2][]byte)}
	db, want := manualTree(t, rec)
	rec.db.Store(db)
	before := db.vs.Current()
	rec.note()
	rec.mu.Lock()
	rec.begins = nil
	rec.mu.Unlock()

	r := keys.Range{Start: []byte("key000900"), Limit: []byte("key000910")}
	touches := func(b [2][]byte) bool { return touchesRange(b, r) }
	if err := db.CompactRange(r.Start, r.Limit); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.begins) == 0 {
		t.Fatal("CompactRange ran no compaction")
	}
	// spans are the user-key spans of each job's source-level tables.
	var spans [][2][]byte
	for _, e := range rec.begins {
		var span [2][]byte
		for _, in := range e.Inputs {
			if in.Level != e.Level {
				continue
			}
			b, ok := rec.bounds[in.Num]
			if !ok {
				t.Fatalf("job %d reads table %d, never seen in a version", e.JobID, in.Num)
			}
			if e.Level > 0 && !touches(b) {
				t.Errorf("job %d (L%d->L%d) reads L%d table %d [%s, %s], outside [%s, %s)",
					e.JobID, e.Level, e.OutputLevel, in.Level, in.Num, b[0], b[1], r.Start, r.Limit)
			}
			if span[0] == nil || keys.CompareUser(b[0], span[0]) < 0 {
				span[0] = b[0]
			}
			if span[1] == nil || keys.CompareUser(b[1], span[1]) > 0 {
				span[1] = b[1]
			}
		}
		spans = append(spans, span)
	}
	after := db.vs.Current()
	live := make(map[uint64]int)
	for level, files := range after.Levels {
		for _, f := range files {
			live[f.Num] = level
			if level < manifest.NumLevels-1 && touches(rec.bounds[f.Num]) {
				t.Errorf("table %d at L%d still holds keys in the range", f.Num, level)
			}
		}
	}
	for level := 1; level < manifest.NumLevels; level++ {
	tables:
		for _, f := range before.Levels[level] {
			b := rec.bounds[f.Num]
			if touches(b) {
				continue
			}
			for _, s := range spans {
				if keys.CompareUser(b[0], s[1]) <= 0 && keys.CompareUser(b[1], s[0]) >= 0 {
					continue tables
				}
			}
			if at, ok := live[f.Num]; !ok || at != level {
				t.Errorf("L%d table %d [%s, %s] is neither in the range nor under a job's tables, but moved or was rewritten",
					level, f.Num, b[0], b[1])
			}
		}
	}
	verifyAll(t, db, want)
}

// TestConcurrentCompactRanges: CompactRange calls racing each other on
// disjoint ranges each still leave their range on the last level only;
// a caller's request waits for the one posted before it instead of
// replacing it.
func TestConcurrentCompactRanges(t *testing.T) {
	db, want := manualTree(t, nil)
	ranges := []keys.Range{
		{Start: []byte("key000100"), Limit: []byte("key000110")},
		{Start: []byte("key001500"), Limit: []byte("key001510")},
		{Start: []byte("key002800"), Limit: []byte("key002810")},
	}
	var wg sync.WaitGroup
	for _, r := range ranges {
		wg.Add(1)
		go func(r keys.Range) {
			defer wg.Done()
			if err := db.CompactRange(r.Start, r.Limit); err != nil {
				t.Errorf("CompactRange(%s, %s): %v", r.Start, r.Limit, err)
			}
		}(r)
	}
	wg.Wait()
	v := db.vs.Current()
	for level := 0; level < manifest.NumLevels-1; level++ {
		for _, f := range v.Levels[level] {
			b := [2][]byte{keys.UserKey(f.Smallest), keys.UserKey(f.Largest)}
			for _, r := range ranges {
				if touchesRange(b, r) {
					t.Errorf("table %d at L%d still holds keys in [%s, %s)", f.Num, level, r.Start, r.Limit)
				}
			}
		}
	}
	verifyAll(t, db, want)
}
