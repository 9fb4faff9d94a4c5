package manifest

import "testing"

func TestPickLevel(t *testing.T) {
	const last = NumLevels - 1
	leveled := Config{}.WithDefaults() // L0 trigger 4, L1 10 MiB, ratio 10
	tiered := leveled
	tiered.TieredRuns = 4
	mib := func(n uint64) uint64 { return n << 20 }
	not := func(rejected ...int) func(level, outputLevel int) bool {
		return func(level, _ int) bool {
			for _, r := range rejected {
				if level == r {
					return false
				}
			}
			return true
		}
	}

	for _, tc := range []struct {
		name    string
		cfg     Config
		shape   Shape
		allowed func(level, outputLevel int) bool
		level   int // -1: nothing to do
		out     int
	}{
		{name: "every level under its trigger", cfg: leveled,
			shape: Shape{0: {Files: 3}, 1: {Bytes: mib(9)}, 2: {Bytes: mib(99)}}, level: -1},
		{name: "L0 by file count", cfg: leveled,
			shape: Shape{0: {Files: 4}, 1: {Bytes: mib(9)}}, level: 0, out: 1},
		{name: "deeper level by bytes over MaxBytes", cfg: leveled,
			shape: Shape{0: {Files: 4}, 1: {Bytes: mib(9)}, 2: {Bytes: mib(150)}}, level: 2, out: 3},
		{name: "leveled ignores runs", cfg: leveled,
			shape: Shape{1: {Bytes: mib(1), Runs: 9}}, level: -1},
		{name: "tiered level by runs over TieredRuns", cfg: tiered,
			shape: Shape{0: {Files: 4}, 2: {Bytes: 1, Runs: 5}}, level: 2, out: 3},
		{name: "tiered ignores bytes", cfg: tiered,
			shape: Shape{1: {Bytes: mib(500), Runs: 3}}, level: -1},
		{name: "deepest leveled level over budget", cfg: leveled,
			shape: Shape{last: {Bytes: 1 << 60}}, level: -1},
		{name: "deepest tiered level rewrites in place", cfg: tiered,
			shape: Shape{last: {Runs: 4}}, level: last, out: last},
		{name: "allowed rejects the best, next best by score", cfg: leveled,
			shape:   Shape{0: {Files: 5}, 1: {Bytes: mib(30)}, 2: {Bytes: mib(200)}},
			allowed: not(1), level: 2, out: 3},
		{name: "allowed rejects the best, next best under 1.0", cfg: leveled,
			shape:   Shape{0: {Files: 3}, 1: {Bytes: mib(30)}},
			allowed: not(1), level: -1},
		{name: "allowed sees the output level", cfg: leveled,
			shape: Shape{0: {Files: 4}, 3: {Bytes: mib(5000)}},
			allowed: func(_, outputLevel int) bool {
				return outputLevel != 4
			}, level: 0, out: 1},
	} {
		level, out, ok := tc.cfg.PickLevel(tc.shape, tc.allowed)
		switch {
		case tc.level < 0 && ok:
			t.Errorf("%s: picked L%d -> L%d, want none", tc.name, level, out)
		case tc.level >= 0 && (!ok || level != tc.level || out != tc.out):
			t.Errorf("%s: got L%d -> L%d (ok %v), want L%d -> L%d", tc.name, level, out, ok, tc.level, tc.out)
		}
	}
}

func TestTrivialMoveRule(t *testing.T) {
	leveled := Config{}.WithDefaults() // 2 MiB tables: 20 MiB of grandparents allowed
	tiered := leveled
	tiered.TieredRuns = 4
	for _, tc := range []struct {
		name             string
		cfg              Config
		files, nextFiles int
		grandparents     uint64
		want             bool
	}{
		{"one file, nothing below", leveled, 1, 0, 0, true},
		{"grandparents at the limit", leveled, 1, 0, 20 << 20, true},
		{"grandparents over the limit", leveled, 1, 0, 20<<20 + 1, false},
		{"something to merge with", leveled, 1, 1, 0, false},
		{"two input files", leveled, 2, 0, 0, false},
		{"tiered always rewrites", tiered, 1, 0, 0, false},
	} {
		if got := tc.cfg.TrivialMove(tc.files, tc.nextFiles, tc.grandparents); got != tc.want {
			t.Errorf("%s: TrivialMove = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestInputRuns(t *testing.T) {
	run := func(id uint64, nums ...uint64) []*FileMetadata {
		var files []*FileMetadata
		for _, n := range nums {
			files = append(files, &FileMetadata{Num: n, RunID: id})
		}
		return files
	}
	tiered := Config{TieredRuns: 4}
	for _, tc := range []struct {
		name string
		c    Compaction
		want [][]uint64 // file numbers per run
	}{
		{"L0: a run per file, then the L1 files",
			Compaction{Level: 0, Inputs: [2][]*FileMetadata{append(run(7, 7), run(9, 9)...), run(0, 3, 4)}},
			[][]uint64{{7}, {9}, {3, 4}}},
		{"leveled: one run per side",
			Compaction{Level: 2, Inputs: [2][]*FileMetadata{run(0, 5, 6), run(0, 8)}},
			[][]uint64{{5, 6}, {8}}},
		{"leveled: nothing below",
			Compaction{Level: 2, Inputs: [2][]*FileMetadata{run(0, 5)}},
			[][]uint64{{5}}},
		{"tiered: a run per RunID",
			Compaction{Level: 1, Cfg: tiered, Inputs: [2][]*FileMetadata{append(run(11, 1, 2), run(12, 3)...)}},
			[][]uint64{{1, 2}, {3}}},
		{"tiered L0: a run per file",
			Compaction{Level: 0, Cfg: tiered, Inputs: [2][]*FileMetadata{append(run(7, 7), run(9, 9)...)}},
			[][]uint64{{7}, {9}}},
	} {
		got := tc.c.InputRuns()
		if tc.c.NumInputs() != len(tc.want) {
			t.Errorf("%s: NumInputs = %d, want %d", tc.name, tc.c.NumInputs(), len(tc.want))
		}
		ok := len(got) == len(tc.want)
		for i := 0; ok && i < len(got); i++ {
			ok = len(got[i]) == len(tc.want[i])
			for j := 0; ok && j < len(got[i]); j++ {
				ok = got[i][j].Num == tc.want[i][j]
			}
		}
		if !ok {
			t.Errorf("%s: runs do not match %v", tc.name, tc.want)
		}
	}
}
