package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fcae/internal/obs"
)

// TestScatteredOverwritesRewriteLittleOfL2 replays the shape behind
// wire-mixed's write amplification at a small scale. A sequential preload
// leaves L2 dense over most of the key space and L1 holding its top; an L0
// merge of overwrites scattered over the whole key space then writes
// sparse L1 tables, each spanning a stretch of dense L2. A merge that
// starts from one of those rewrites many L2 bytes for the few it moves;
// one that starts from a dense top table re-links it for nothing.
//
// Measured: the round-robin compact pointer rewrote 7.93 L2 bytes per L1
// byte moved; the least-overlap pick 2.98, and compaction output fell
// from 7.3 to 4.5 MB. The bar sits between them, about 1.6× from each.
// Re-linking an L0 merge's free L1 inputs ahead of it (the next test)
// leaves 2.73.
func TestScatteredOverwritesRewriteLittleOfL2(t *testing.T) {
	db, rec, _ := scatteredOverwrites(t)

	// What merges out of L1 read, from the events: L1 tables move down,
	// L2 tables are rewritten.
	var moved, overlap int64
	for _, e := range rec.snapshot() {
		if c, ok := e.(obs.CompactionBeginEvent); ok && c.Level == 1 && !c.TrivialMove {
			for _, in := range c.Inputs {
				if in.Level == 2 {
					overlap += in.Size
				} else {
					moved += in.Size
				}
			}
		}
	}
	c := db.Metrics().Counters
	ratio := float64(overlap) / float64(moved)
	t.Logf("L1 merges moved %d bytes and rewrote %d of L2: %.2f per byte; %d merges, %d trivial moves, %d compaction bytes written",
		moved, overlap, ratio, c["compaction_count"], c["compaction_trivial"], c["compaction_write_bytes"])
	if moved == 0 || ratio > 5 {
		t.Fatalf("L1 merges rewrote %.2f L2 bytes per L1 byte moved down (%d moved), want at most 5", ratio, moved)
	}
	if got := c["level1_overlap_bytes"]; got != overlap {
		t.Fatalf("level1_overlap_bytes = %d, want the %d bytes of L2 tables L1's merges read", got, overlap)
	}
	if got := c["level1_read_bytes"] - c["level1_overlap_bytes"]; got != moved {
		t.Fatalf("level1_read_bytes - level1_overlap_bytes = %d, want the %d bytes of L1 tables merged", got, moved)
	}
}

// TestL0MergesCopyFewFreeL1Tables runs the same script and reads L0's
// rewrite ratio over the overwrite phase: L1 bytes L0 merges read per L0
// byte they move down. The preload leaves cold L1 tables with no L2 table
// under them, and every scattered L0 merge spans them; re-linking them
// into L2 ahead of the merge leaves it less to copy.
//
// Measured: 1.14 while L0 merges copied them, 0.73 with the re-link
// ahead (8 moves), and compaction output fell from 4.5 to 3.9 MB. The
// bar sits between them.
func TestL0MergesCopyFewFreeL1Tables(t *testing.T) {
	db, _, before := scatteredOverwrites(t)
	c := db.Metrics().Counters
	overlap := c["level0_overlap_bytes"] - before["level0_overlap_bytes"]
	moved := c["level0_read_bytes"] - before["level0_read_bytes"] - overlap
	ratio := float64(overlap) / float64(moved)
	ahead := c["compaction_trivial_ahead"] - before["compaction_trivial_ahead"]
	t.Logf("over the overwrites L0 merges moved %d bytes and rewrote %d of L1: %.2f per byte; %d trivial moves ahead of them, %d compaction bytes written",
		moved, overlap, ratio, ahead, c["compaction_write_bytes"]-before["compaction_write_bytes"])
	if moved == 0 || ratio > 0.9 {
		t.Fatalf("L0 merges rewrote %.2f L1 bytes per L0 byte moved down (%d moved), want at most 0.9", ratio, moved)
	}
}

// scatteredOverwrites runs the script of the two tests above on one
// compaction worker: a sequential preload, then overwrites scattered over
// the whole key space. It returns the store, its events, and its counters
// as the overwrite phase began.
func scatteredOverwrites(t *testing.T) (*DB, *recordingListener, map[string]int64) {
	t.Helper()
	rec := &recordingListener{}
	db := openTest(t, Options{
		MemTableBytes:      64 << 10,
		BaseLevelBytes:     256 << 10,
		MaxOutputFileBytes: 32 << 10,
		DisableCompression: true,
		DispatchConfig:     DispatchConfig{Workers: 1},
		EventListener:      rec,
	})
	const records = 24000
	value := make([]byte, 200)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	// Each batch, a little under a memtable, is flushed and settled before
	// the next, so one worker sees the same tree at every pick and the
	// merges are a function of the script alone.
	write := func(ids func(int) int, n int) {
		t.Helper()
		var b Batch
		for i := 0; i < n; i++ {
			b.Put(key(ids(i)), value)
			if b.Len() < 250 && i < n-1 {
				continue
			}
			if err := db.Write(&b); err != nil {
				t.Fatal(err)
			}
			b.Reset()
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(func(i int) int { return i }, records)
	preload := db.Metrics().Counters
	rng := rand.New(rand.NewSource(1))
	write(func(int) int { return rng.Intn(records) }, records/6)
	return db, rec, preload
}

// TestLevelOverlapBytes pins level{N}_overlap_bytes on one merge of known
// tables: an L1 table over an L2 table, both of known size.
func TestLevelOverlapBytes(t *testing.T) {
	db := openTest(t, Options{DisableCompression: true})
	value := make([]byte, 100)
	// fill writes keys lo, lo+step, ... below 400 and re-links the flushed
	// table down to L1.
	fill := func(lo, step int) {
		t.Helper()
		for i := lo; i < 400; i += step {
			if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactLevel(0); err != nil {
			t.Fatal(err)
		}
	}
	fill(0, 1)
	if err := db.CompactLevel(1); err != nil {
		t.Fatal(err)
	}
	fill(0, 4)
	v := db.vs.Current()
	if v.NumFiles(1) != 1 || v.NumFiles(2) != 1 {
		t.Fatalf("L1 holds %d tables and L2 %d, want one each", v.NumFiles(1), v.NumFiles(2))
	}
	l1, l2 := int64(v.Levels[1][0].Size), int64(v.Levels[2][0].Size)
	if err := db.CompactLevel(1); err != nil {
		t.Fatal(err)
	}
	c := db.Metrics().Counters
	if c["level1_compactions"] != 1 || c["level1_overlap_bytes"] != l2 || c["level1_read_bytes"] != l1+l2 {
		t.Fatalf("level1 compactions %d, overlap %d, read %d; want 1, %d, %d",
			c["level1_compactions"], c["level1_overlap_bytes"], c["level1_read_bytes"], l2, l1+l2)
	}
	if c["level0_overlap_bytes"] != 0 {
		t.Fatalf("level0_overlap_bytes = %d; L0's tables only ever re-linked", c["level0_overlap_bytes"])
	}
	rewrite := fmt.Sprintf("%.2f", float64(l2)/float64(l1))
	if s := db.PropertyString(); !strings.Contains(s, "Rewrite") || !strings.Contains(s, "  "+rewrite+"  ") {
		t.Fatalf("PropertyString does not show L1's rewrite ratio %s:\n%s", rewrite, s)
	}
}

// TestTrivialAheadCounter pins compaction_trivial_ahead on one L0 merge
// whose only L1 input has no L2 table under it: the table is re-linked
// into L2 first, and counted under compaction_trivial too.
func TestTrivialAheadCounter(t *testing.T) {
	db := openTest(t, Options{DisableCompression: true})
	value := make([]byte, 100)
	// fill writes keys lo, lo+step, ... up to hi and flushes them to L0.
	fill := func(lo, hi, step int) {
		t.Helper()
		for i := lo; i <= hi; i += step {
			if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	compact := func(level int) {
		t.Helper()
		if err := db.CompactLevel(level); err != nil {
			t.Fatal(err)
		}
	}
	// key0000-key0099 re-linked down to L2, key0200-key0299 to L1.
	fill(0, 99, 1)
	compact(0)
	compact(1)
	fill(200, 299, 1)
	compact(0)
	// Four L0 tables over both reach the trigger.
	for i := 0; i < 4; i++ {
		fill(i, 299, 3)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	c := db.Metrics().Counters
	if c["compaction_trivial_ahead"] != 1 || c["compaction_trivial"] != 4 || c["level0_overlap_bytes"] != 0 {
		t.Fatalf("compaction_trivial_ahead %d, compaction_trivial %d, level0_overlap_bytes %d; want 1, 4, 0",
			c["compaction_trivial_ahead"], c["compaction_trivial"], c["level0_overlap_bytes"])
	}
	if s := db.PropertyString(); !strings.Contains(s, "trivial 4, 1 of them ahead of an L0 merge") {
		t.Fatalf("PropertyString does not show the move ahead:\n%s", s)
	}
}
