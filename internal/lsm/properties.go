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
	parts := db.met.compactionParts.Value()
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
	fmt.Fprintf(&b, "compaction io: read %.2f MB, wrote %.2f MB, merged in %d key-range parts\n",
		float64(st.CompactionRead)/(1<<20), float64(st.CompactionWrite)/(1<<20), parts)
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
// [start, limit) from table metadata alone (nil bounds are open): a table
// inside the range counts whole, one straddling a bound counts half.
// Memtable contents are excluded.
func (db *DB) ApproximateSize(start, limit []byte) uint64 {
	return db.vs.Current().ApproximateSize(keys.Range{Start: start, Limit: limit})
}

// CompactRange flushes the memtable, then merges the tables holding user
// keys in [start, limit) down the tree until every level but the last is
// free of them (nil bounds are open). Each level's jobs take only tables
// touching the range, and the least-overlapping of them first; a level
// is done when the picker finds none left there.
func (db *DB) CompactRange(start, limit []byte) error {
	if err := db.Flush(); err != nil {
		return err
	}
	r := keys.Range{Start: start, Limit: limit}
	for level := 0; level < manifest.NumLevels-1; level++ {
		for picked := true; picked; {
			var err error
			if picked, err = db.compactManual(level, r); err != nil {
				return err
			}
		}
	}
	return nil
}
