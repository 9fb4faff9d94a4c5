package manifest

import (
	"cmp"
	"fmt"
	"slices"
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

// Apply produces the next version from an edit. A level the edit does not
// touch is shared with v, its capacity clipped so an append can never
// write into v's array; a touched level is copied once, without its
// deleted tables and with its added ones in place: in insertion order at
// level 0, spliced into (RunID, Smallest) order by binary search deeper.
// Only the neighbours of an added table are checked for overlap, since
// deleting tables cannot make two others overlap. An edit costs what it
// touches, not the size of the tree.
func (v *Version) Apply(edit *VersionEdit) (*Version, error) {
	var touched [NumLevels]bool
	for _, d := range edit.Deleted {
		touched[d.Level] = true
	}
	for _, a := range edit.Added {
		touched[a.Level] = true
	}
	next := &Version{}
	for level, files := range v.Levels {
		if !touched[level] {
			next.Levels[level] = files[:len(files):len(files)]
			continue
		}
		files, err := applyLevel(files, level, edit)
		if err != nil {
			return nil, err
		}
		next.Levels[level] = files
	}
	return next, nil
}

// applyLevel returns a copy of level's files with edit applied to it.
func applyLevel(files []*FileMetadata, level int, edit *VersionEdit) ([]*FileMetadata, error) {
	var deleted map[uint64]bool
	var added []*FileMetadata
	for _, d := range edit.Deleted {
		if d.Level != level {
			continue
		}
		if deleted == nil {
			deleted = make(map[uint64]bool)
		}
		if deleted[d.Num] {
			return nil, fmt.Errorf("manifest: deleting unknown file %d at level %d", d.Num, d.Level)
		}
		deleted[d.Num] = true
	}
	for _, a := range edit.Added {
		if a.Level == level {
			added = append(added, a.Meta)
		}
	}

	out := make([]*FileMetadata, 0, len(files)+len(added))
	for _, f := range files {
		if deleted[f.Num] {
			delete(deleted, f.Num)
			continue
		}
		out = append(out, f)
	}
	for _, d := range edit.Deleted {
		if d.Level == level && deleted[d.Num] {
			return nil, fmt.Errorf("manifest: deleting unknown file %d at level %d", d.Num, d.Level)
		}
	}
	if level == 0 {
		return append(out, added...), nil
	}

	// Splice from the back: each added table, largest first, goes after
	// every kept table that sorts before it, and the kept tables above it
	// move up by one block copy. Its place is final once it is put.
	slices.SortFunc(added, compareFiles)
	places := make([]int, len(added))
	kept := len(out)
	out = out[:kept+len(added)]
	for a := len(added) - 1; a >= 0; a-- {
		f := added[a]
		at := sort.Search(kept, func(i int) bool { return compareFiles(out[i], f) > 0 })
		copy(out[at+a+1:], out[at:kept])
		out[at+a], places[a] = f, at+a
		kept = at
	}
	for _, i := range places {
		if err := checkNeighbours(out, i, level); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareFiles orders a level >= 1 in version storage order: by RunID,
// then by smallest key.
func compareFiles(a, b *FileMetadata) int {
	if a.RunID != b.RunID {
		return cmp.Compare(a.RunID, b.RunID)
	}
	return keys.Compare(a.Smallest, b.Smallest)
}

// checkNeighbours reports an overlap between files[i] and a neighbour of
// the same sorted run. Distinct runs may overlap freely (tiered mode);
// leveled levels put every file in run 0, so this is the classic
// whole-level invariant.
func checkNeighbours(files []*FileMetadata, i, level int) error {
	for _, j := range [2]int{i - 1, i} {
		if j < 0 || j+1 >= len(files) {
			continue
		}
		prev, cur := files[j], files[j+1]
		if prev.RunID == cur.RunID && keys.CompareUser(keys.UserKey(prev.Largest), keys.UserKey(cur.Smallest)) >= 0 {
			return fmt.Errorf("manifest: level %d run %d files %d and %d overlap: %q vs %q",
				level, cur.RunID, prev.Num, cur.Num, keys.UserKey(prev.Largest), keys.UserKey(cur.Smallest))
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
