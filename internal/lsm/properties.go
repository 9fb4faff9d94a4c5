package lsm

import (
	"fmt"
	"strings"
	"time"

	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/obs"
)

// PropertyString renders a human-readable summary of the store's shape and
// counters, in the spirit of LevelDB's GetProperty("leveldb.stats").
func (db *DB) PropertyString() string {
	db.mu.Lock()
	st := db.statsLocked()
	flushDropped := db.met.flushDropped.Value()
	trivialAhead := db.met.trivialAhead.Value()
	memBytes := db.mem.ApproximateSize()
	immPending := db.imm != nil
	db.mu.Unlock()
	v := db.vs.Current()

	var b strings.Builder
	fmt.Fprintf(&b, "Level  Files  Size(MB)  Runs  Compactions  Read(MB)  Write(MB)  Rewrite  Time\n")
	fmt.Fprintf(&b, "-----------------------------------------------------------------------------\n")
	for level := 0; level < manifest.NumLevels; level++ {
		ls := st.Levels[level]
		if v.NumFiles(level) == 0 && ls.Compactions == 0 {
			continue
		}
		// Rewrite: next-level bytes merged per byte moved down.
		rewrite, overlap := "-", db.met.levelOverlap[level].Value()
		if moved := ls.BytesRead - overlap; moved > 0 {
			rewrite = fmt.Sprintf("%.2f", float64(overlap)/float64(moved))
		}
		fmt.Fprintf(&b, "%5d  %5d  %8.2f  %4d  %11d  %8.2f  %9.2f  %7s  %v\n",
			level, v.NumFiles(level), float64(v.LevelBytes(level))/(1<<20),
			v.NumRuns(level), ls.Compactions,
			float64(ls.BytesRead)/(1<<20), float64(ls.BytesWritten)/(1<<20),
			rewrite, ls.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "memtable: %.2f MB (immutable pending: %v)\n", float64(memBytes)/(1<<20), immPending)
	fmt.Fprintf(&b, "table cache: %.2f MB mapped\n", float64(db.tables.mappedBytes())/(1<<20))
	fmt.Fprintf(&b, "writes: %d (%.2f MB), flushes: %d (%.2f MB, %d entries dropped)\n",
		st.Writes, float64(st.BytesWritten)/(1<<20), st.Flushes, float64(st.FlushBytes)/(1<<20), flushDropped)
	fmt.Fprintf(&b, "compactions: %d (engine %d, sw fallback %d, trivial %d, %d of them ahead of an L0 merge)\n",
		st.Compactions, st.HWCompactions, st.SWFallbacks, st.TrivialMoves, trivialAhead)
	fmt.Fprintf(&b, "compaction io: read %.2f MB, wrote %.2f MB\n",
		float64(st.CompactionRead)/(1<<20), float64(st.CompactionWrite)/(1<<20))
	if st.HWCompactions > 0 {
		fmt.Fprintf(&b, "engine: kernel %v, pcie %v\n",
			st.KernelTime.Round(time.Microsecond), st.TransferTime.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "write stalls: %v across %d waits\n", st.StallTime.Round(time.Millisecond), st.StallWrites)
	return b.String()
}

// Metrics snapshots the store's metrics registry: counters and histograms
// published by the write path, flushes and compactions, plus callback
// gauges for level shape, cache hit ratios and (when the FCAE executor is
// configured) engine totals. It complements Stats with typed, named,
// machine-renderable instruments.
func (db *DB) Metrics() obs.Metrics {
	return db.reg.Snapshot()
}

// Registry exposes the store's metrics registry so embedding layers (the
// network server) can register their own instruments alongside the
// store's and serve one unified snapshot.
func (db *DB) Registry() *obs.Registry {
	return db.reg
}

// WriteAmplification returns bytes written by flush+compaction divided by
// bytes flushed, the standard WA metric.
func (db *DB) WriteAmplification() float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	flushed := db.met.flushBytes.Value()
	if flushed == 0 {
		return 0
	}
	return float64(flushed+db.met.compactionWrite.Value()) / float64(flushed)
}

// ApproximateSize estimates the on-disk bytes holding user keys in
// [start, limit). Files fully inside the range count whole; files
// straddling a boundary count half (a coarse but cheap interpolation, as
// in LevelDB's GetApproximateSizes). Memtable contents are excluded.
func (db *DB) ApproximateSize(start, limit []byte) uint64 {
	v := db.vs.Current()
	var total uint64
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			lo := keys.UserKey(f.Smallest)
			hi := keys.UserKey(f.Largest)
			loIn := start == nil || keys.CompareUser(lo, start) >= 0
			hiIn := limit == nil || keys.CompareUser(hi, limit) < 0
			switch {
			case loIn && hiIn:
				total += f.Size
			case !rangeTouchesFile(keys.Range{Start: start, Limit: limit}, f):
				// disjoint: contributes nothing
			default:
				total += f.Size / 2
			}
		}
	}
	return total
}

// CompactRange compacts every level intersecting the user-key range
// [start, limit) down the tree, flushing first, so the range ends up fully
// merged. A nil limit means "to the end"; nil start means "from the
// beginning".
func (db *DB) CompactRange(start, limit []byte) error {
	if err := db.Flush(); err != nil {
		return err
	}
	r := keys.Range{Start: start, Limit: limit}
	for level := 0; level < manifest.NumLevels-1; level++ {
		for {
			v := db.vs.Current()
			touched := false
			for _, f := range v.Levels[level] {
				if rangeTouchesFile(r, f) {
					touched = true
					break
				}
			}
			if !touched {
				break
			}
			if err := db.CompactLevel(level); err != nil {
				return err
			}
			// CompactLevel moves at least one table out of the level;
			// loop until the range no longer has files here.
			nv := db.vs.Current()
			if sameFiles(v.Levels[level], nv.Levels[level]) {
				// No progress (e.g. single trivial state); avoid spinning.
				break
			}
		}
	}
	return nil
}

func rangeTouchesFile(r keys.Range, f *manifest.FileMetadata) bool {
	lo := keys.UserKey(f.Smallest)
	hi := keys.UserKey(f.Largest)
	if r.Limit != nil && keys.CompareUser(lo, r.Limit) >= 0 {
		return false
	}
	if r.Start != nil && keys.CompareUser(hi, r.Start) < 0 {
		return false
	}
	return true
}

func sameFiles(a, b []*manifest.FileMetadata) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Num != b[i].Num {
			return false
		}
	}
	return true
}
