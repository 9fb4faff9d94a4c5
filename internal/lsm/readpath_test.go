package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// The read path keeps its buffers: a table cursor moves from block to
// block and table to table with its scratch, a scan's cursors come out of
// one slab, a Get's table cursor is recycled, and going forward Value is
// the block's own bytes. These tests hold it to what that must not change
// — what a reader sees, what a closed iterator does — and to the
// allocation counts it exists for.

// threeRuns leaves db with three L0 tables over one interleaved key range:
// key i of 3n lives in table i%3, oldest table first. Every key range
// overlaps, so a scan merges three runs beside the memtable and a Get for
// a key of table 0 is answered by the third table probed.
func threeRuns(t *testing.T, db *DB, n int) {
	t.Helper()
	for run := 0; run < 3; run++ {
		for i := run; i < 3*n; i += 3 {
			k := []byte(fmt.Sprintf("key%08d", i))
			v := []byte(fmt.Sprintf("value-%08d-%0480d", i, i))
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if got := db.LevelFiles()[0]; got != 3 {
		t.Fatalf("%d L0 tables, want 3", got)
	}
}

// deepRuns leaves db with one table in L2 and one in L1 under threeRuns'
// three L0 tables. The deep tables hold keys of their own over the same
// range, key%08d.2 in L2 and key%08d.1 in L1 for every third i of 3n, so
// every level's range covers every key and a Get for a deep key is
// rejected by the filters above it.
func deepRuns(t *testing.T, db *DB, n int) {
	t.Helper()
	for _, level := range []int{2, 1} {
		for i := 0; i < 3*n; i += 3 {
			k := []byte(fmt.Sprintf("key%08d.%d", i, level))
			v := []byte(fmt.Sprintf("value-%08d-%0480d", i, level))
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for from := 0; from < level; from++ {
			if err := db.CompactLevel(from); err != nil {
				t.Fatal(err)
			}
		}
	}
	threeRuns(t, db, n)
	if got := db.LevelFiles(); got[1] != 1 || got[2] != 1 {
		t.Fatalf("level files %v, want one table in L1 and one in L2", got)
	}
}

// outstandingRefs sums the table handles readers still hold.
func outstandingRefs(db *DB) int {
	tc := db.tables
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for _, h := range tc.entries {
		n += h.refs
	}
	return n
}

// The allocation budgets are not parallel tests: AllocsPerRun sees the
// whole process.

// TestScanAllocationBudget: a warm 50-entry scan over five runs, three in
// L0 and one each in L1 and L2, allocates when it is built and when a
// cursor or a scratch key is first used — not per entry, not per block
// and not per level. 110 over three runs before the read path kept its
// buffers; two more here while building it split each level into runs.
func TestScanAllocationBudget(t *testing.T) {
	db := openTest(t, Options{})
	deepRuns(t, db, 400)
	start := []byte("key00000300")
	scan := func() {
		it, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		ok := it.Seek(start)
		for i := 0; i < 50; i++ {
			if !ok {
				t.Fatalf("scan ended after %d entries: %v", i, it.Error())
			}
			if len(it.Key()) == 0 || len(it.Value()) == 0 {
				t.Fatal("empty entry")
			}
			ok = it.Next()
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	scan() // blocks into the cache, tables into the table cache
	got := testing.AllocsPerRun(100, scan)
	t.Logf("warm 50-entry scan over five runs: %.0f allocations", got)
	// Per scan: the Iterator, the slab of run cursors, the child slice and
	// the merge heap (4); the seek key (2: user key, then trailer), the
	// skip key and the surfaced key (4). Per run, on its first block: the
	// index cursor's key, the data cursor's key and the data block's
	// restart array (3). The runs below L0 are walked in place.
	const runs = 5
	if budget := 8.0 + 3*runs; got > budget {
		t.Fatalf("warm scan allocates %.0f times, budget %.0f", got, budget)
	}
}

// TestTableGetAllocationBudget: a warm Get that falls through the
// memtable, three L0 tables and L1 to the table in L2. 14 through three
// tables before. It counts what a warm pool saves, and the race detector
// makes sync.Pool drop a quarter of what it is given.
func TestTableGetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	db := openTest(t, Options{})
	deepRuns(t, db, 400)
	key := []byte("key00000300.2") // L2's
	get := func() {
		v, err := db.Get(key)
		if err != nil || len(v) == 0 {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	}
	get()
	got := testing.AllocsPerRun(100, get)
	t.Logf("warm Get answered by L2: %.0f allocations", got)
	// 1: the value, which is the caller's to keep and to write. The
	// candidate list and its sort (5), the lookup key, the table cursor,
	// its blocks' cursors and their key scratch (8) are gone, and so is one
	// per level below L0 that the Get walked into runs.
	if got > 1 {
		t.Fatalf("warm table Get allocates %.0f times, budget 1", got)
	}
}

// TestClosedIteratorStaysClosed: Close hands the tables and the version
// back, so a positioning call after it must not read either. Before, Seek on a closed iterator answered true out of a
// version it no longer held and left a table handle nobody would release.
func TestClosedIteratorStaysClosed(t *testing.T) {
	db := openTest(t, Options{})
	threeRuns(t, db, 50)
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("key00000010")
	if !it.Seek(key) {
		t.Fatalf("seek found nothing: %v", it.Error())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if it.Valid() || it.Key() != nil || it.Value() != nil {
		t.Error("a closed iterator still surfaces an entry")
	}
	hits0, misses0 := db.tables.stats()
	for name, call := range map[string]func() bool{
		"Seek":  func() bool { return it.Seek(key) },
		"First": it.First,
		"Last":  it.Last,
		"Next":  it.Next,
		"Prev":  it.Prev,
	} {
		if call() {
			t.Errorf("%s on a closed iterator returned true", name)
		}
		if !errors.Is(it.Error(), ErrClosed) {
			t.Errorf("%s on a closed iterator: Error() = %v, want ErrClosed", name, it.Error())
		}
	}
	if hits, misses := db.tables.stats(); hits != hits0 || misses != misses0 {
		t.Errorf("a closed iterator went to the table cache %d times", hits-hits0+misses-misses0)
	}
	if n := outstandingRefs(db); n != 0 {
		t.Errorf("%d table references outstanding after Close", n)
	}
	if err := it.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// modelCursor is the iterator's contract over a sorted key list: an
// absolute call always positions, a relative call on an invalid cursor
// stays invalid.
type modelCursor struct {
	keys []string
	pos  int // -1: invalid
}

func (m *modelCursor) set(pos int) bool {
	if pos < 0 || pos >= len(m.keys) {
		pos = -1
	}
	m.pos = pos
	return pos >= 0
}

func (m *modelCursor) seek(k string) bool { return m.set(sort.SearchStrings(m.keys, k)) }

func (m *modelCursor) step(d int) bool {
	if m.pos < 0 {
		return false
	}
	return m.set(m.pos + d)
}

// TestRecycledIteratorsMatchModel: whatever a cursor read last — another
// block, another table, the other direction — is invisible to what it
// reads next. Goroutines drive two iterators each through random
// positioning calls, direction switches included, closing and reopening
// them, while the store flushes and compacts the (logically constant)
// contents under them. Every answer is checked against a sorted-map
// model.
func TestRecycledIteratorsMatchModel(t *testing.T) {
	db := openTest(t, smallOpts())
	rng := rand.New(rand.NewSource(41))
	model := make(map[string]string)
	write := func(n int) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key%06d", rng.Intn(4000))
			if rng.Intn(5) == 0 {
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
				continue
			}
			v := fmt.Sprintf("v%d-%0*d", i, 20+rng.Intn(200), i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	write(6000) // several flushes and compactions deep
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	write(300) // and a memtable's worth on top, tombstones included
	sorted := make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	const readers, steps = 4, 3000
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var its [2]*Iterator
			var cur [2]modelCursor
			reopen := func(i int) bool {
				it, err := db.NewIterator()
				if err != nil {
					t.Errorf("NewIterator: %v", err)
					return false
				}
				its[i], cur[i] = it, modelCursor{keys: sorted, pos: -1}
				return true
			}
			for i := range its {
				if !reopen(i) {
					return
				}
				defer func(i int) { its[i].Close() }(i)
			}
			for step := 0; step < steps; step++ {
				i := rng.Intn(2)
				it, m := its[i], &cur[i]
				var got, want bool
				var op string
				switch r := rng.Intn(20); {
				case r == 0:
					op = "Close"
					it.Close()
					if !reopen(i) {
						return
					}
					continue
				case r == 1:
					op, got, want = "First", it.First(), m.set(0)
				case r == 2:
					op, got, want = "Last", it.Last(), m.set(len(sorted)-1)
				case r < 6:
					k := fmt.Sprintf("key%06d", rng.Intn(4100))
					op, got, want = "Seek "+k, it.Seek([]byte(k)), m.seek(k)
				case r < 14:
					op, got, want = "Next", it.Next(), m.step(+1)
				default:
					op, got, want = "Prev", it.Prev(), m.step(-1)
				}
				if got != want || it.Valid() != want {
					t.Errorf("step %d, %s: returned %v, Valid %v, model %v (err %v)", step, op, got, it.Valid(), want, it.Error())
					return
				}
				if !want {
					if err := it.Error(); err != nil {
						t.Errorf("step %d, %s: %v", step, op, err)
						return
					}
					continue
				}
				k := sorted[m.pos]
				if string(it.Key()) != k || string(it.Value()) != model[k] {
					t.Errorf("step %d, %s: at %q (%d value bytes), model at %q (%d)", step, op, it.Key(), len(it.Value()), k, len(model[k]))
					return
				}
			}
		}(int64(100 + g))
	}
	// The contents stay what they are; where they live does not.
	if err := db.Flush(); err != nil {
		t.Error(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if n := outstandingRefs(db); n != 0 {
		t.Errorf("%d table references outstanding after every iterator closed", n)
	}
}

// TestValueViewHoldsUntilNextCall: going forward Value is a view of the
// block the cursor stands on. It has to stay byte-for-byte what it was
// until the next positioning call, whatever happens to the table and the
// block meanwhile: here the table is compacted away, an 8 KiB block cache
// turns over many times, and other iterators come and go.
func TestValueViewHoldsUntilNextCall(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = 8 << 10
	db := openTest(t, opts)
	want := fillRandom(t, db, 2000, 300, 43)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	before := liveTables(db.vs.Current())

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Seek([]byte("key00001000")) {
		t.Fatalf("seek found nothing: %v", it.Error())
	}
	k, v := it.Key(), it.Value()
	heldK, heldV := string(k), string(v)
	if want[heldK] != heldV {
		t.Fatalf("surfaced %q with a value the fill did not write", k)
	}

	for key := range want {
		if err := db.Put([]byte(key), bytes.Repeat([]byte("z"), 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	after := liveTables(db.vs.Current())
	for num := range before {
		if after[num] {
			t.Fatalf("table %d survived the rewrite; the test needs the view's table replaced", num)
		}
	}
	for round := 0; round < 3; round++ {
		other, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		ks, _ := scanAll(t, other) // turns the block cache over
		other.Close()
		if len(ks) != len(want) {
			t.Fatalf("scan surfaced %d keys, want %d", len(ks), len(want))
		}
	}
	if string(k) != heldK || string(v) != heldV {
		t.Fatal("a held Key/Value pair changed before the next positioning call")
	}
	// And the iterator goes on from there, in its own version.
	if !it.Next() || string(it.Key()) <= heldK || want[string(it.Key())] != string(it.Value()) {
		t.Fatalf("Next after the held view: at %q, err %v", it.Key(), it.Error())
	}
}
