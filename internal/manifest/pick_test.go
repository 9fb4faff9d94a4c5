package manifest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fcae/internal/keys"
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
			vs, err := Open(t.TempDir(), Config{BaseLevelBytes: 1})
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
			c := vs.PickCompactionAtLevel(tc.level)
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
		got := v.leastOverlapping(level)
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
