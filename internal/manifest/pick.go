package manifest

import (
	"slices"

	"fcae/internal/keys"
)

// Compaction describes one merge job: the files consumed from Level and
// Level+1 and the bookkeeping needed to install the result. It is exactly
// the unit the paper's host scheduler offloads to the FPGA (paper §IV
// steps 1-3). Which level, whether it is a re-link and how many runs it
// reads are the policy's decisions (policy.go); this file finds the files.
type Compaction struct {
	Level int
	// Inputs[0] are the files from Level, Inputs[1] those from Level+1. In
	// tiered mode (Cfg.TieredRuns > 0) a job is a full-level merge: all
	// runs of Level combine into ONE fresh run at OutputLevel(), without
	// touching the next level's existing runs (the lazy part).
	Inputs [2][]*FileMetadata
	Cfg    Config

	// SmallestUser / LargestUser bound the union of all inputs.
	SmallestUser []byte
	LargestUser  []byte

	// Ahead marks a trivial move the size picker took ahead of the L0
	// merge that would otherwise have rewritten the moved table.
	Ahead bool

	// grandparents are level+2 files overlapping the output range; only
	// IsTrivialMove reads them, to refuse a re-link over too many of them.
	grandparents []*FileMetadata
}

// NumInputs returns the number of sorted runs feeding the merge.
func (c *Compaction) NumInputs() int { return len(c.InputRuns()) }

// OutputLevel is where the merge's output tables land.
func (c *Compaction) OutputLevel() int {
	out, _ := c.Cfg.OutputLevel(c.Level)
	return out
}

// InputBytes returns the total input size.
func (c *Compaction) InputBytes() uint64 {
	var n uint64
	for _, side := range c.Inputs {
		for _, f := range side {
			n += f.Size
		}
	}
	return n
}

// IsTrivialMove reports whether the job can be satisfied by re-linking a
// single input file into the next level without rewriting it.
func (c *Compaction) IsTrivialMove() bool {
	var overlap uint64
	for _, f := range c.grandparents {
		overlap += f.Size
	}
	return c.Cfg.TrivialMove(len(c.Inputs[0]), len(c.Inputs[1]), overlap)
}

// IsBottomLevel reports whether no data deeper than the merge's output can
// hold older versions of its keys, allowing tombstones to be dropped. A
// tiered merge must also treat the output level's other, unconsumed runs
// as "deeper": a dropped tombstone would resurrect their entries.
func (c *Compaction) IsBottomLevel(v *Version) bool {
	deeper := c.Level + 2
	if c.Cfg.TieredRuns > 0 {
		deeper = c.OutputLevel()
	}
	for level := deeper; level < NumLevels; level++ {
		for _, f := range v.Levels[level] {
			if fileRangeOverlaps(f, c.SmallestUser, c.LargestUser) &&
				!slices.ContainsFunc(c.Inputs[0], func(in *FileMetadata) bool { return in.Num == f.Num }) {
				return false
			}
		}
	}
	return true
}

// PickCompactionFiltered builds the most urgent compaction of the current
// version on a level allowed accepts (nil accepts all; see Config.PickLevel),
// or returns nil when no such level needs work. An L0 merge may first give
// way to a trivial move of one of its L1 inputs (moveAheadLocked).
func (vs *VersionSet) PickCompactionFiltered(allowed func(level, outputLevel int) bool) *Compaction {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	level, _, ok := vs.cfg.PickLevel(vs.current.Shape(), allowed)
	if !ok {
		return nil
	}
	c := vs.buildCompactionLocked(level, nil, keys.Range{})
	if mv := vs.moveAheadLocked(c, allowed); mv != nil {
		return mv
	}
	return c
}

// moveAheadLocked returns a trivial move of the first L1 input of the L0
// merge c that overlaps nothing in L2, so the merge need not copy it; nil
// when c is no L0 merge, L2 is empty (a first lap of re-links would only
// come back as L1 merges), levels 1 and 2 are not allowed, or no input
// can move (a tiered merge has no L1 inputs). The next pick rebuilds the
// L0 merge without the moved table.
func (vs *VersionSet) moveAheadLocked(c *Compaction, allowed func(level, outputLevel int) bool) *Compaction {
	if c.Level != 0 || len(vs.current.Levels[2]) == 0 || allowed != nil && !allowed(1, 2) {
		return nil
	}
	for _, f := range c.Inputs[1] {
		if mv := vs.buildCompactionLocked(1, f, keys.Range{}); mv.IsTrivialMove() {
			mv.Ahead = true
			return mv
		}
	}
	return nil
}

// PickCompactionAtLevel builds a manual compaction of level's tables
// touching r (the zero Range touches all: the size picker's job at level),
// or returns nil when none does or the level has no output level. Below
// L0 the job takes no other table of the level; a tiered level merges
// whole.
func (vs *VersionSet) PickCompactionAtLevel(level int, r keys.Range) *Compaction {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if _, ok := vs.cfg.OutputLevel(level); !ok {
		return nil
	}
	return vs.buildCompactionLocked(level, nil, r)
}

// buildCompactionLocked builds a compaction at level seeded from seed or,
// when seed is nil, from leastOverlapping's table; nil when no table at
// level touches r.
func (vs *VersionSet) buildCompactionLocked(level int, seed *FileMetadata, r keys.Range) *Compaction {
	v := vs.current
	c := &Compaction{Level: level, Cfg: vs.cfg}
	if vs.cfg.TieredRuns > 0 {
		// Tiered mode always merges whole levels.
		if !slices.ContainsFunc(v.Levels[level], func(f *FileMetadata) bool { return rangeTouchesFile(r, f) }) {
			return nil
		}
		c.Inputs[0] = append([]*FileMetadata(nil), v.Levels[level]...)
		c.SmallestUser, c.LargestUser = inputUserRange(c.Inputs[0])
		return c
	}
	if seed == nil {
		if seed = v.leastOverlapping(level, r); seed == nil {
			return nil
		}
	}
	c.Inputs[0] = []*FileMetadata{seed}

	if level == 0 {
		// Level 0 files may overlap each other: take the transitive set.
		s, l := keys.UserKey(seed.Smallest), keys.UserKey(seed.Largest)
		c.Inputs[0] = v.Overlapping(0, s, l)
	}
	vs.setupOtherInputs(v, c, r)
	return c
}

// leastOverlapping returns the table of level touching r whose merge
// rewrites the fewest level+1 bytes per byte it moves down (Sarkar et al.'s
// least-overlap data movement), the first in level order on a tie, or nil
// when no table touches r. An L0 table is scored alone; the caller adds its
// transitive closure. Below L0 both levels are sorted and disjoint, so one
// sweep scores every table.
func (v *Version) leastOverlapping(level int, r keys.Range) *FileMetadata {
	files, next := v.Levels[level], v.Levels[level+1]
	var best *FileMetadata
	bestRatio, j := 0.0, 0
	for _, f := range files {
		if !rangeTouchesFile(r, f) {
			continue
		}
		var overlap uint64
		if level == 0 {
			for _, g := range v.Overlapping(1, keys.UserKey(f.Smallest), keys.UserKey(f.Largest)) {
				overlap += g.Size
			}
		} else {
			for j < len(next) && keys.CompareUser(keys.UserKey(next[j].Largest), keys.UserKey(f.Smallest)) < 0 {
				j++
			}
			// next[j] may straddle into the following table too, so the
			// cursor stays on it.
			for k := j; k < len(next) && keys.CompareUser(keys.UserKey(next[k].Smallest), keys.UserKey(f.Largest)) <= 0; k++ {
				overlap += next[k].Size
			}
		}
		if ratio := float64(overlap) / float64(f.Size); best == nil || ratio < bestRatio {
			best, bestRatio = f, ratio
		}
	}
	return best
}

// setupOtherInputs computes the level+1 inputs and optionally grows the
// level inputs by tables touching r when doing so does not pull in more
// level+1 data. L0 grows by its whole transitive set: leaving an older
// overlapping L0 table behind would let it shadow the merged keys.
func (vs *VersionSet) setupOtherInputs(v *Version, c *Compaction, r keys.Range) {
	smallest, largest := inputUserRange(c.Inputs[0])
	c.Inputs[1] = v.Overlapping(c.Level+1, smallest, largest)

	allSmallest, allLargest := unionRange(smallest, largest, c.Inputs[1])

	// Growth: see if more level files fit without expanding level+1.
	if len(c.Inputs[1]) > 0 {
		expanded0 := v.Overlapping(c.Level, allSmallest, allLargest)
		if c.Level > 0 {
			expanded0 = slices.DeleteFunc(expanded0, func(f *FileMetadata) bool { return !rangeTouchesFile(r, f) })
		}
		if len(expanded0) > len(c.Inputs[0]) {
			s1, l1 := inputUserRange(expanded0)
			expanded1 := v.Overlapping(c.Level+1, s1, l1)
			if len(expanded1) == len(c.Inputs[1]) {
				c.Inputs[0] = expanded0
				smallest, largest = s1, l1
				allSmallest, allLargest = unionRange(smallest, largest, c.Inputs[1])
			}
		}
	}
	c.SmallestUser, c.LargestUser = allSmallest, allLargest
	if c.Level+2 < NumLevels {
		c.grandparents = v.Overlapping(c.Level+2, allSmallest, allLargest)
	}
}

// inputUserRange returns the inclusive user-key bounds of files.
func inputUserRange(files []*FileMetadata) (smallest, largest []byte) {
	for _, f := range files {
		fs, fl := keys.UserKey(f.Smallest), keys.UserKey(f.Largest)
		if smallest == nil || keys.CompareUser(fs, smallest) < 0 {
			smallest = fs
		}
		if largest == nil || keys.CompareUser(fl, largest) > 0 {
			largest = fl
		}
	}
	return smallest, largest
}

func unionRange(smallest, largest []byte, files []*FileMetadata) (s, l []byte) {
	s, l = smallest, largest
	fs, fl := inputUserRange(files)
	if fs != nil && keys.CompareUser(fs, s) < 0 {
		s = fs
	}
	if fl != nil && keys.CompareUser(fl, l) > 0 {
		l = fl
	}
	return s, l
}
