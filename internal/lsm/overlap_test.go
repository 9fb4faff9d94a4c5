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
func TestScatteredOverwritesRewriteLittleOfL2(t *testing.T) {
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
	rng := rand.New(rand.NewSource(1))
	write(func(int) int { return rng.Intn(records) }, records/6)

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
