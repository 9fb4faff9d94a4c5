package manifest

// The compaction policy: which level compacts next and where its output
// lands, when a job is a re-link instead of a merge, and how many sorted
// runs a merge reads. Everything here is a pure function of counts, sizes
// and the Config, so the store decides on a live Version (pick.go, package
// lsm) and the simulator on its scalar model of one (package lsmsim) with
// the same code.

// LevelShape is what the policy reads of one level.
type LevelShape struct {
	Files int
	Bytes uint64
	// Runs counts sorted runs: every L0 file is one (their key ranges may
	// overlap), a leveled level is a single run, a tiered level holds one
	// per RunID.
	Runs int
}

// Shape is the per-level view of a tree that PickLevel scores.
type Shape [NumLevels]LevelShape

// Shape summarises v for the policy.
func (v *Version) Shape() Shape {
	var s Shape
	for level, files := range v.Levels {
		s[level] = LevelShape{Files: len(files), Bytes: v.LevelBytes(level), Runs: v.NumRuns(level)}
	}
	return s
}

// OutputLevel is where a merge of level lands: the next level down. The
// deepest level has none below it — a tiered merge rewrites it in place, a
// leveled tree never compacts out of it (ok is false).
func (c Config) OutputLevel(level int) (outputLevel int, ok bool) {
	if level < NumLevels-1 {
		return level + 1, true
	}
	return level, c.TieredRuns > 0
}

// PickLevel returns the level that most needs compacting and the level its
// output lands on; ok is false when no candidate has reached its trigger.
// L0 is scored by file count against L0CompactionTrigger; a deeper level
// by bytes against its budget, or in tiered mode by sorted runs against
// TieredRuns. allowed, when non-nil, is consulted with each candidate's
// input and output level and rejected levels are skipped in score order:
// concurrent compaction workers use it to keep in-flight jobs on disjoint
// levels.
func (c Config) PickLevel(s Shape, allowed func(level, outputLevel int) bool) (level, outputLevel int, ok bool) {
	bestScore := 0.0
	for l, ls := range s {
		out, can := c.OutputLevel(l)
		if !can || allowed != nil && !allowed(l, out) {
			continue
		}
		var score float64
		switch {
		case l == 0:
			score = float64(ls.Files) / float64(c.L0CompactionTrigger)
		case c.TieredRuns > 0:
			score = float64(ls.Runs) / float64(c.TieredRuns)
		default:
			score = float64(ls.Bytes) / float64(c.MaxBytes(l))
		}
		if score > bestScore {
			level, outputLevel, bestScore = l, out, score
		}
	}
	return level, outputLevel, bestScore >= 1.0
}

// TrivialMove reports whether a leveled job is satisfied by re-linking its
// single input file one level down without rewriting it: nothing on the
// next level to merge it with, and not so many grandparent bytes under it
// that the move would set up an expensive merge at the next level later.
// A tiered merge always rewrites: its output is one fresh run.
func (c Config) TrivialMove(files, nextFiles int, grandparentBytes uint64) bool {
	return c.TieredRuns == 0 && files == 1 && nextFiles == 0 &&
		grandparentBytes <= 10*c.MaxOutputFileBytes
}

// InputRuns groups the job's inputs into the sorted runs its merge reads,
// oldest first; their number is the paper's N (§IV step 2), which decides
// whether the job fits the engine (§VI-A). Level-0 files are a run each, a
// tiered level contributes one run per RunID, a leveled level concatenates
// into a single run, and the next level's files, when any, form one more.
func (c *Compaction) InputRuns() [][]*FileMetadata {
	runs := [][]*FileMetadata{c.Inputs[0]}
	if c.Level == 0 || c.Cfg.TieredRuns > 0 {
		runs = splitRuns(c.Inputs[0], c.Level == 0)
	}
	if len(c.Inputs[1]) > 0 {
		runs = append(runs, c.Inputs[1])
	}
	return runs
}
