package manifest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rebuild is what Apply computed before it spliced: copy every level,
// delete, append, re-sort every level >= 1 and check each whole level.
func rebuild(v *Version, edit *VersionEdit) (*Version, error) {
	next := &Version{}
	for i := range v.Levels {
		next.Levels[i] = slices.Clone(v.Levels[i])
	}
	for _, d := range edit.Deleted {
		i := slices.IndexFunc(next.Levels[d.Level], func(f *FileMetadata) bool { return f.Num == d.Num })
		if i < 0 {
			return nil, fmt.Errorf("deleting unknown file %d at level %d", d.Num, d.Level)
		}
		next.Levels[d.Level] = slices.Delete(next.Levels[d.Level], i, i+1)
	}
	for _, a := range edit.Added {
		next.Levels[a.Level] = append(next.Levels[a.Level], a.Meta)
	}
	for level := 1; level < NumLevels; level++ {
		files := next.Levels[level]
		slices.SortStableFunc(files, compareFiles)
		for i := 1; i < len(files); i++ {
			if err := checkNeighbours(files, i, level); err != nil {
				return nil, err
			}
		}
	}
	return next, nil
}

// TestVersionApplyMatchesFullRebuild applies random edits — deletes,
// adds into gaps and into tiered runs, overlapping adds, unknown and
// repeated deletes — to random versions, and holds Apply to the full
// rebuild: the same levels, file for file, or an error on the same edits.
// The base version must come out of every edit unchanged.
func TestVersionApplyMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	applied := 0
	for round := 0; round < 300; round++ {
		v := &Version{}
		num := uint64(1)
		for level := 0; level < NumLevels; level++ {
			runs := 1
			if level > 0 && rng.Intn(4) == 0 {
				runs = 2 + rng.Intn(2) // a tiered level
			}
			for run := 0; run < runs; run++ {
				for lo := rng.Intn(20); lo < 1000; lo += 20 + rng.Intn(40) {
					if rng.Intn(3) == 0 {
						continue
					}
					f := meta(num, 100, key(lo), key(lo+10))
					if level > 0 {
						f.RunID = uint64(run)
					}
					v.Levels[level] = append(v.Levels[level], f)
					num++
				}
			}
			slices.SortStableFunc(v.Levels[level], compareFiles)
		}
		before := v.Levels
		for i := range before {
			before[i] = slices.Clone(before[i])
		}

		edit := &VersionEdit{}
		for n := rng.Intn(4); n > 0; n-- {
			level := rng.Intn(NumLevels)
			switch files := v.Levels[level]; {
			case rng.Intn(10) == 0 || len(files) == 0:
				edit.DeleteFile(level, 1_000_000) // unknown
			default:
				edit.DeleteFile(level, files[rng.Intn(len(files))].Num)
			}
		}
		for n := rng.Intn(5); n > 0; n-- {
			lo := rng.Intn(1000)
			f := meta(num, 100, key(lo), key(lo+rng.Intn(12)))
			num++
			level := rng.Intn(NumLevels)
			if level > 0 {
				f.RunID = uint64(rng.Intn(3))
			}
			edit.AddFile(level, f)
		}

		want, wantErr := rebuild(v, edit)
		got, err := v.Apply(edit)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("round %d: Apply error %v, rebuild error %v", round, err, wantErr)
		}
		if err == nil {
			applied++
		}
		for level := range v.Levels {
			if !slices.Equal(v.Levels[level], before[level]) {
				t.Fatalf("round %d: Apply changed the base version's level %d", round, level)
			}
			if err == nil && !slices.Equal(got.Levels[level], want.Levels[level]) {
				t.Fatalf("round %d: level %d differs from the full rebuild", round, level)
			}
		}
	}
	if applied < 50 || applied > 250 {
		t.Fatalf("%d of 300 edits applied: too few of one outcome to compare", applied)
	}
	t.Logf("%d of 300 edits applied, the rest refused", applied)
}

// BenchmarkVersionApply times a one-table edit on a synthetic version the
// size a long paper-scale fill leaves: 21k tables at L4 and 213k at L5.
// The edit deletes one L4 and one L5 table and adds the L5 table's
// replacement, as a merge of one table into one does.
func BenchmarkVersionApply(b *testing.B) {
	v := &Version{}
	num := uint64(1)
	for _, l := range []struct{ level, tables int }{{4, 21_000}, {5, 213_000}} {
		for i := 0; i < l.tables; i++ {
			v.Levels[l.level] = append(v.Levels[l.level], meta(num, 2<<20, fmt.Sprintf("k%09d", 10*i), fmt.Sprintf("k%09d", 10*i+5)))
			num++
		}
	}
	edit := &VersionEdit{}
	edit.DeleteFile(4, v.Levels[4][10_500].Num)
	old := v.Levels[5][106_500]
	edit.DeleteFile(5, old.Num)
	edit.AddFile(5, &FileMetadata{Num: num, Size: old.Size, Smallest: old.Smallest, Largest: old.Largest})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Apply(edit); err != nil {
			b.Fatal(err)
		}
	}
}
