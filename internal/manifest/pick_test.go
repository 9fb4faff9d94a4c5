package manifest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/vfs"
)

// TestPickLeastOverlappingTable: with no seed, a merge starts from the
// table that rewrites the fewest next-level bytes per byte it moves down.
func TestPickLeastOverlappingTable(t *testing.T) {
	const mb = 1 << 20
	type table struct {
		level  int
		size   uint64
		lo, hi string
	}
	for _, tc := range []struct {
		name   string
		level  int
		tables []table
		// want are the level's inputs, by their smallest key.
		want    []string
		trivial bool
	}{
		{
			name:  "lowest ratio wins",
			level: 1,
			tables: []table{
				{1, mb, "a", "c"}, {1, mb, "d", "f"}, {1, mb, "g", "i"},
				{2, 3 * mb, "a", "c"}, {2, mb, "d", "f"}, {2, 2 * mb, "g", "i"},
			},
			want: []string{"d"},
		},
		{
			name:  "size normalizes the overlap",
			level: 1,
			tables: []table{
				{1, mb, "a", "c"}, {1, 2 * mb, "d", "f"},
				{2, 2 * mb, "a", "c"}, {2, 2 * mb, "d", "f"},
			},
			want: []string{"d"},
		},
		{
			// Added in reverse: level order is key order.
			name:  "equal ratios go to the first in key order",
			level: 1,
			tables: []table{
				{1, 2 * mb, "d", "f"}, {1, mb, "a", "c"},
				{2, 2 * mb, "d", "f"}, {2, mb, "a", "c"},
			},
			want: []string{"a"},
		},
		{
			name:  "no overlap is a trivial move",
			level: 1,
			tables: []table{
				{1, mb, "a", "c"}, {1, mb, "x", "z"},
				{2, mb, "a", "c"},
			},
			want:    []string{"x"},
			trivial: true,
		},
		{
			// "e".."g" overlaps nothing below and seeds the job; the job
			// still takes every L0 table its range transitively reaches,
			// and leaves "p".."q", first in level order, alone.
			name:  "level 0 takes the transitive closure",
			level: 0,
			tables: []table{
				{0, mb, "p", "q"}, {0, mb, "a", "c"}, {0, mb, "b", "f"}, {0, mb, "e", "g"},
				{1, mb, "a", "b"}, {1, mb, "c", "d"}, {1, 4 * mb, "p", "q"},
			},
			want: []string{"a", "b", "e"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, err := Open(vfs.Default, t.TempDir(), Config{BaseLevelBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer vs.Close()
			edit := &VersionEdit{}
			for _, tb := range tc.tables {
				edit.AddFile(tb.level, meta(vs.AllocFileNum(), tb.size, tb.lo, tb.hi))
			}
			if err := vs.LogAndApply(edit); err != nil {
				t.Fatal(err)
			}
			c := vs.PickCompactionAtLevel(tc.level, keys.Range{})
			if c == nil {
				t.Fatalf("no compaction at level %d", tc.level)
			}
			var got []string
			for _, f := range c.Inputs[0] {
				got = append(got, string(keys.UserKey(f.Smallest)))
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("level %d inputs start at %q, want %q", tc.level, got, tc.want)
			}
			if c.IsTrivialMove() != tc.trivial {
				t.Fatalf("IsTrivialMove = %v, want %v", c.IsTrivialMove(), tc.trivial)
			}
		})
	}
}

// TestLeastOverlappingMatchesBruteForce: on random leveled versions the
// two-pointer sweep picks the table one Overlapping call per table picks,
// and no other table of the level has a lower ratio.
func TestLeastOverlappingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// disjoint adds n tables at level with sorted, disjoint key ranges drawn
	// from a small key space, so neighbours on the two levels often share
	// a boundary key.
	disjoint := func(level, n int, nextNum *uint64, edit *VersionEdit) {
		bounds := rng.Perm(200)[:2*n]
		slices.Sort(bounds)
		for i := 0; i < n; i++ {
			*nextNum++
			size := uint64(1 + rng.Intn(1000))
			edit.AddFile(level, meta(*nextNum, size,
				fmt.Sprintf("k%03d", bounds[2*i]), fmt.Sprintf("k%03d", bounds[2*i+1])))
		}
	}
	overlap := func(v *Version, level int, f *FileMetadata) uint64 {
		var n uint64
		for _, g := range v.Overlapping(level+1, keys.UserKey(f.Smallest), keys.UserKey(f.Largest)) {
			n += g.Size
		}
		return n
	}
	for trial := 0; trial < 400; trial++ {
		level := 1 + rng.Intn(NumLevels-2)
		var num uint64
		edit := &VersionEdit{}
		disjoint(level, 1+rng.Intn(20), &num, edit)
		disjoint(level+1, rng.Intn(40), &num, edit)
		v, err := (&Version{}).Apply(edit)
		if err != nil {
			t.Fatal(err)
		}
		ratio := func(f *FileMetadata) float64 { return float64(overlap(v, level, f)) / float64(f.Size) }
		files := v.Levels[level]
		want := files[0]
		for _, f := range files[1:] {
			if ratio(f) < ratio(want) {
				want = f
			}
		}
		got := v.leastOverlapping(level, keys.Range{})
		if got != want {
			t.Fatalf("trial %d: sweep picked table %d, brute force %d", trial, got.Num, want.Num)
		}
		for _, f := range files {
			if ratio(f) < ratio(got) {
				t.Fatalf("trial %d: table %d rewrites %.3f next-level bytes per byte, less than the pick %d's %.3f",
					trial, f.Num, ratio(f), got.Num, ratio(got))
			}
		}
	}
}

// TestL0MergeRelinksFreeL1Tables: when the size picker chooses a leveled
// L0 merge, an L1 input with nothing under it in L2 is re-linked into L2
// first, provided L2 already holds tables, the re-link passes the
// grandparent bound and levels 1 and 2 are free.
func TestL0MergeRelinksFreeL1Tables(t *testing.T) {
	const mb = 1 << 20
	type table struct {
		level  int
		size   uint64
		lo, hi string
	}
	// Four L0 tables over the whole key space reach the trigger; L1 holds
	// three tables and "d".."f" has no L2 table under it.
	base := []table{
		{0, mb, "a", "z"}, {0, mb, "a", "z"}, {0, mb, "a", "z"}, {0, mb, "a", "z"},
		{1, mb, "a", "c"}, {1, mb, "d", "f"}, {1, mb, "g", "i"},
	}
	l2 := []table{{2, mb, "a", "c"}, {2, mb, "g", "i"}}
	build := func(t *testing.T, cfg Config, tables ...[]table) *VersionSet {
		t.Helper()
		vs, err := Open(vfs.Default, t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vs.Close() })
		edit := &VersionEdit{}
		for _, ts := range tables {
			for _, tb := range ts {
				edit.AddFile(tb.level, meta(vs.AllocFileNum(), tb.size, tb.lo, tb.hi))
			}
		}
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatal(err)
		}
		return vs
	}
	starts := func(files []*FileMetadata) []string {
		var s []string
		for _, f := range files {
			s = append(s, string(keys.UserKey(f.Smallest)))
		}
		return s
	}
	// wantL0Merge checks c is the plain L0 merge of every L0 table over
	// the L1 tables starting at l1.
	wantL0Merge := func(t *testing.T, c *Compaction, l1 ...string) {
		t.Helper()
		if c == nil || c.Level != 0 || c.Ahead || c.IsTrivialMove() {
			t.Fatalf("got %+v, want an L0 merge", c)
		}
		if len(c.Inputs[0]) != 4 || !slices.Equal(starts(c.Inputs[1]), l1) {
			t.Fatalf("L0 merge reads %d L0 tables and L1 tables starting at %q, want 4 and %q",
				len(c.Inputs[0]), starts(c.Inputs[1]), l1)
		}
	}

	t.Run("free L1 input moves first", func(t *testing.T) {
		vs := build(t, Config{}, base, l2)
		c := vs.PickCompactionFiltered(nil)
		if c == nil || c.Level != 1 || !c.Ahead || !c.IsTrivialMove() ||
			!slices.Equal(starts(c.Inputs[0]), []string{"d"}) {
			t.Fatalf("got %+v, want the trivial move of L1's \"d\" table ahead of the L0 merge", c)
		}
		edit := &VersionEdit{}
		edit.DeleteFile(1, c.Inputs[0][0].Num)
		edit.AddFile(2, c.Inputs[0][0])
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatal(err)
		}
		wantL0Merge(t, vs.PickCompactionFiltered(nil), "a", "g")
	})
	t.Run("first input that passes the grandparent bound", func(t *testing.T) {
		// "d".."f" sits over more than ten output tables of L3, so the
		// free "j".."l" behind it is the one that moves.
		vs := build(t, Config{}, base, l2, []table{{1, mb, "j", "l"}, {3, 21 * mb, "d", "f"}})
		c := vs.PickCompactionFiltered(nil)
		if c == nil || !c.Ahead || !slices.Equal(starts(c.Inputs[0]), []string{"j"}) {
			t.Fatalf("got %+v, want the trivial move of L1's \"j\" table", c)
		}
	})
	t.Run("empty L2 gives the L0 merge", func(t *testing.T) {
		wantL0Merge(t, build(t, Config{}, base).PickCompactionFiltered(nil), "a", "d", "g")
	})
	t.Run("grandparents over the bound give no move", func(t *testing.T) {
		vs := build(t, Config{}, base, l2, []table{{3, 21 * mb, "d", "f"}})
		wantL0Merge(t, vs.PickCompactionFiltered(nil), "a", "d", "g")
	})
	t.Run("levels 1 and 2 not allowed give the L0 merge", func(t *testing.T) {
		vs := build(t, Config{}, base, l2)
		var asked bool
		c := vs.PickCompactionFiltered(func(level, out int) bool {
			if level == 1 && out == 2 {
				asked = true
				return false
			}
			return true
		})
		if !asked {
			t.Fatal("the picker never asked whether levels 1 and 2 are free")
		}
		wantL0Merge(t, c, "a", "d", "g")
	})
	t.Run("manual L0 compaction is unchanged", func(t *testing.T) {
		wantL0Merge(t, build(t, Config{}, base, l2).PickCompactionAtLevel(0, keys.Range{}), "a", "d", "g")
	})
	t.Run("a deeper merge is unchanged", func(t *testing.T) {
		// L3 is the level over budget; the L4 table under its merge has
		// nothing over it in L2 and must stay where it is.
		vs := build(t, Config{BaseLevelBytes: 1 << 10},
			[]table{{2, 1, "x", "z"}, {3, mb, "a", "c"}, {4, mb, "a", "c"}})
		c := vs.PickCompactionFiltered(nil)
		if c == nil || c.Level != 3 || c.Ahead || len(c.Inputs[1]) != 1 {
			t.Fatalf("got %+v, want the L3 merge over its L4 table", c)
		}
	})
	t.Run("tiered mode is unchanged", func(t *testing.T) {
		c := build(t, Config{TieredRuns: 4}, base, l2).PickCompactionFiltered(nil)
		if c == nil || c.Level != 0 || c.Ahead || len(c.Inputs[0]) != 4 || len(c.Inputs[1]) != 0 {
			t.Fatalf("got %+v, want the tiered merge of L0's four runs", c)
		}
	})
}

// TestPickCompactionAtLevelRange: a manual pick seeds from the
// least-overlapping table among those touching its range, grows only by
// tables touching it, and finds nothing when no table does; the zero
// range picks what the size picker would.
func TestPickCompactionAtLevelRange(t *testing.T) {
	const mb = 1 << 20
	type table struct {
		level  int
		size   uint64
		lo, hi string
	}
	// "d".."f" rewrites the least L2 data; "k".."l" and "m".."n" share one
	// L2 table, so a merge of either grows by the other.
	tables := []table{
		{1, mb, "a", "c"}, {1, mb, "d", "f"}, {1, mb, "g", "i"}, {1, mb, "k", "l"}, {1, mb, "m", "n"},
		{2, 3 * mb, "a", "c"}, {2, mb, "d", "f"}, {2, 2 * mb, "g", "i"}, {2, 4 * mb, "k", "n"},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		r    keys.Range
		want []string // the level's inputs, by their smallest key; nil: no job
	}{
		{name: "zero range is the whole-level pick", r: keys.Range{}, want: []string{"d"}},
		{name: "seed touches the range", r: keys.Range{Start: []byte("b"), Limit: []byte("h")}, want: []string{"d"}},
		{name: "least-overlapping of the touching tables", r: keys.Range{Start: []byte("b"), Limit: []byte("d")}, want: []string{"a"}},
		{name: "open start", r: keys.Range{Limit: []byte("b")}, want: []string{"a"}},
		{name: "open limit", r: keys.Range{Start: []byte("h")}, want: []string{"g"}},
		{name: "growth stays in the range", r: keys.Range{Start: []byte("k"), Limit: []byte("l")}, want: []string{"k"}},
		{name: "growth over the range", r: keys.Range{Start: []byte("k"), Limit: []byte("n")}, want: []string{"k", "m"}},
		{name: "limit is exclusive", r: keys.Range{Start: []byte("ca"), Limit: []byte("d")}, want: nil},
		{name: "nothing touches the range", r: keys.Range{Start: []byte("x")}, want: nil},
		{name: "tiered level merges whole", cfg: Config{TieredRuns: 4}, r: keys.Range{Start: []byte("a"), Limit: []byte("b")},
			want: []string{"a", "d", "g", "k", "m"}},
		{name: "tiered level with nothing in range", cfg: Config{TieredRuns: 4}, r: keys.Range{Start: []byte("x")}, want: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, err := Open(vfs.Default, t.TempDir(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer vs.Close()
			edit := &VersionEdit{}
			for _, tb := range tables {
				edit.AddFile(tb.level, meta(vs.AllocFileNum(), tb.size, tb.lo, tb.hi))
			}
			if err := vs.LogAndApply(edit); err != nil {
				t.Fatal(err)
			}
			c := vs.PickCompactionAtLevel(1, tc.r)
			if tc.want == nil {
				if c != nil {
					t.Fatalf("got a job over %d tables, want none", len(c.Inputs[0]))
				}
				return
			}
			if c == nil {
				t.Fatalf("no job, want one over %q", tc.want)
			}
			var got []string
			for _, f := range c.Inputs[0] {
				got = append(got, string(keys.UserKey(f.Smallest)))
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("level 1 inputs start at %q, want %q", got, tc.want)
			}
		})
	}
}
