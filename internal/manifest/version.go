package manifest

import (
	"fmt"
	"sort"

	"fcae/internal/keys"
)

// Version is an immutable snapshot of the table set. Level 0 holds files
// with possibly overlapping key ranges, newest first; levels >= 1 are
// sorted by smallest key and non-overlapping (paper §II-A).
type Version struct {
	Levels [NumLevels][]*FileMetadata
	// refs counts the readers holding this version (VersionSet.Ref/Unref);
	// guarded by the owning VersionSet's mutex.
	refs int
}

// Clone returns a shallow copy (file metadata is shared; the per-level
// slices are fresh).
func (v *Version) Clone() *Version {
	n := &Version{}
	for i := range v.Levels {
		n.Levels[i] = append([]*FileMetadata(nil), v.Levels[i]...)
	}
	return n
}

// NumFiles returns the file count at level.
func (v *Version) NumFiles(level int) int { return len(v.Levels[level]) }

// TotalFiles returns the file count across levels.
func (v *Version) TotalFiles() int {
	n := 0
	for i := range v.Levels {
		n += len(v.Levels[i])
	}
	return n
}

// LevelBytes returns the total table bytes at level.
func (v *Version) LevelBytes(level int) uint64 {
	var n uint64
	for _, f := range v.Levels[level] {
		n += f.Size
	}
	return n
}

// fileRangeOverlaps reports whether f holds user keys in the inclusive
// range [smallest, largest]; a nil bound is open.
func fileRangeOverlaps(f *FileMetadata, smallest, largest []byte) bool {
	if largest != nil && keys.CompareUser(keys.UserKey(f.Smallest), largest) > 0 {
		return false
	}
	if smallest != nil && keys.CompareUser(keys.UserKey(f.Largest), smallest) < 0 {
		return false
	}
	return true
}

// rangeTouchesFile reports whether f holds user keys in r. The zero Range
// touches every table.
func rangeTouchesFile(r keys.Range, f *FileMetadata) bool {
	if r.Limit != nil && keys.CompareUser(keys.UserKey(f.Smallest), r.Limit) >= 0 {
		return false
	}
	return r.Start == nil || keys.CompareUser(keys.UserKey(f.Largest), r.Start) >= 0
}

// ApproximateSize estimates the table bytes holding user keys in r: a
// table inside r counts whole, one straddling a bound of r counts half (a
// coarse but cheap interpolation, as in LevelDB's GetApproximateSizes).
func (v *Version) ApproximateSize(r keys.Range) uint64 {
	var total uint64
	for _, files := range v.Levels {
		for _, f := range files {
			switch {
			case r.Contains(keys.UserKey(f.Smallest)) && r.Contains(keys.UserKey(f.Largest)):
				total += f.Size
			case rangeTouchesFile(r, f):
				total += f.Size / 2
			}
		}
	}
	return total
}

// Overlapping returns the files at level intersecting the inclusive user
// key range [smallest, largest]. At level 0 the range is expanded to cover
// transitively overlapping files, as LevelDB does, so a compaction consumes
// every L0 file whose range touches the result set.
func (v *Version) Overlapping(level int, smallest, largest []byte) []*FileMetadata {
	var out []*FileMetadata
	files := v.Levels[level]
	for i := 0; i < len(files); i++ {
		f := files[i]
		if !fileRangeOverlaps(f, smallest, largest) {
			continue
		}
		if level == 0 {
			// Grow the range and restart if this file extends it.
			fs, fl := keys.UserKey(f.Smallest), keys.UserKey(f.Largest)
			restart := false
			if smallest != nil && keys.CompareUser(fs, smallest) < 0 {
				smallest = fs
				restart = true
			}
			if largest != nil && keys.CompareUser(fl, largest) > 0 {
				largest = fl
				restart = true
			}
			if restart {
				out = out[:0]
				i = -1
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// ForEachOverlapping visits files that may contain userKey, newest first:
// L0 files from newest to oldest, then one file per deeper level. The
// visit function returns false to stop.
func (v *Version) ForEachOverlapping(userKey []byte, visit func(level int, f *FileMetadata) bool) {
	// L0: all overlapping files, newest (highest number) first. Writes
	// stop at a dozen L0 files by default, so the candidates fit the
	// stack and an insertion sort.
	var stack [16]*FileMetadata
	l0 := stack[:0]
	for _, f := range v.Levels[0] {
		if keys.CompareUser(userKey, keys.UserKey(f.Smallest)) >= 0 &&
			keys.CompareUser(userKey, keys.UserKey(f.Largest)) <= 0 {
			i := len(l0)
			l0 = append(l0, f)
			for ; i > 0 && l0[i-1].Num < f.Num; i-- {
				l0[i] = l0[i-1]
			}
			l0[i] = f
		}
	}
	for _, f := range l0 {
		if !visit(0, f) {
			return
		}
	}
	for level := 1; level < NumLevels; level++ {
		// Probe each sorted run, newest first: within one level, a more
		// recent run holds strictly newer data (full-run tiering moves
		// whole levels down together), so the first hit wins.
		for files := v.Levels[level]; len(files) > 0; {
			run := NewestRun(files)
			files = files[:len(files)-len(run)]
			i := sort.Search(len(run), func(i int) bool {
				return keys.CompareUser(keys.UserKey(run[i].Largest), userKey) >= 0
			})
			if i < len(run) && keys.CompareUser(userKey, keys.UserKey(run[i].Smallest)) >= 0 {
				if !visit(level, run[i]) {
					return
				}
			}
		}
	}
}

// Apply produces the next version from an edit. Added files are inserted
// in sorted order (levels >= 1) or kept in insertion order for level 0.
func (v *Version) Apply(edit *VersionEdit) (*Version, error) {
	next := v.Clone()
	for _, d := range edit.Deleted {
		files := next.Levels[d.Level]
		idx := -1
		for i, f := range files {
			if f.Num == d.Num {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("manifest: deleting unknown file %d at level %d", d.Num, d.Level)
		}
		next.Levels[d.Level] = append(files[:idx:idx], files[idx+1:]...)
	}
	for _, a := range edit.Added {
		next.Levels[a.Level] = append(next.Levels[a.Level], a.Meta)
	}
	for level := 1; level < NumLevels; level++ {
		files := next.Levels[level]
		sort.Slice(files, func(i, j int) bool {
			if files[i].RunID != files[j].RunID {
				return files[i].RunID < files[j].RunID
			}
			return keys.Compare(files[i].Smallest, files[j].Smallest) < 0
		})
	}
	return next, next.checkInvariants()
}

// checkInvariants validates sortedness and non-overlap within each sorted
// run at levels >= 1. Distinct runs may overlap freely (tiered mode);
// leveled levels put every file in run 0, so the check degenerates to the
// classic whole-level invariant.
func (v *Version) checkInvariants() error {
	for level := 1; level < NumLevels; level++ {
		files := v.Levels[level]
		for i := 1; i < len(files); i++ {
			prev, cur := files[i-1], files[i]
			if prev.RunID != cur.RunID {
				continue
			}
			if keys.CompareUser(keys.UserKey(prev.Largest), keys.UserKey(cur.Smallest)) >= 0 {
				return fmt.Errorf("manifest: level %d run %d files %d and %d overlap: %q vs %q",
					level, cur.RunID, prev.Num, cur.Num, keys.UserKey(prev.Largest), keys.UserKey(cur.Smallest))
			}
		}
	}
	return nil
}

// splitRuns cuts files, in version storage order (RunID, Smallest), into
// sorted runs, oldest first: consecutive files of one RunID, or every file
// on its own when each is a run (level 0).
func splitRuns(files []*FileMetadata, each bool) [][]*FileMetadata {
	var runs [][]*FileMetadata
	start := 0
	for i := 1; i <= len(files); i++ {
		if i == len(files) || each || files[i].RunID != files[start].RunID {
			runs = append(runs, files[start:i])
			start = i
		}
	}
	return runs
}

// NewestRun returns the sorted run at the end of files, a level >= 1 in
// version storage order or a prefix of one: the files of the largest
// RunID. Cutting it off and asking again walks a level's runs newest
// first, in place, as a Get and an iterator do.
func NewestRun(files []*FileMetadata) []*FileMetadata {
	id := files[len(files)-1].RunID
	return files[sort.Search(len(files), func(i int) bool { return files[i].RunID >= id }):]
}

// NumRuns returns the number of sorted runs at level (each L0 file is its
// own run).
func (v *Version) NumRuns(level int) int {
	files := v.Levels[level]
	if level == 0 {
		return len(files)
	}
	n := 0
	for ; len(files) > 0; n++ {
		files = files[:len(files)-len(NewestRun(files))]
	}
	return n
}
