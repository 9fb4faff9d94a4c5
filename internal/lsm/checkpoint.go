package lsm

import (
	"fmt"
	"io"

	"fcae/internal/manifest"
	"fcae/internal/vfs"
)

// Checkpoint writes a consistent, self-contained copy of the store into
// dest (which must not exist): the memtable is flushed, every live table
// file is copied, and a fresh MANIFEST/CURRENT pair referencing them is
// written. The checkpoint can be opened as a normal database.
func (db *DB) Checkpoint(dest string) error {
	if _, err := db.fs.Stat(dest); err == nil {
		return fmt.Errorf("lsm: checkpoint destination %s already exists", dest)
	}
	if err := db.Flush(); err != nil {
		return err
	}

	// The acquired version keeps every table it names on disk while the
	// copy runs.
	rs, err := db.acquire()
	if err != nil {
		return err
	}
	defer db.release(rs)
	v, seq := rs.version, rs.seq

	if err := db.fs.MkdirAll(dest, 0o755); err != nil {
		return err
	}
	var maxNum uint64
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			if err := db.copyFile(tablePath(db.dir, f.Num), tablePath(dest, f.Num)); err != nil {
				return fmt.Errorf("lsm: checkpoint copy table %d: %w", f.Num, err)
			}
			if f.Num > maxNum {
				maxNum = f.Num
			}
		}
	}

	// Fresh manifest referencing the copied tables.
	vs, err := manifest.Open(db.fs, dest, db.opts.ManifestConfig())
	if err != nil {
		return err
	}
	edit := &manifest.VersionEdit{}
	edit.SetLastSeq(seq)
	edit.SetNextFileNum(maxNum + 1000) // clear of copied numbers
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			// The version's own metadata, run id included: a tiered level's
			// overlapping runs must stay apart in the copy.
			edit.AddFile(level, f)
		}
	}
	if err := vs.LogAndApply(edit); err != nil {
		_ = vs.Close()
		return err
	}
	return vs.Close()
}

// DisableFileDeletions suspends the obsolete-file sweep so an external
// tool can copy the directory while the store stays live (hot backup).
// Calls nest; each must be matched by EnableFileDeletions. While held,
// obsolete tables, WALs and manifests accumulate but are never unlinked,
// so any file a copied manifest prefix references remains readable.
func (db *DB) DisableFileDeletions() {
	db.mu.Lock()
	db.holdDeletions++
	db.mu.Unlock()
}

// EnableFileDeletions releases one DisableFileDeletions hold; dropping
// the last hold runs the suppressed sweep immediately.
func (db *DB) EnableFileDeletions() {
	db.mu.Lock()
	if db.holdDeletions > 0 {
		db.holdDeletions--
		if db.holdDeletions == 0 && !db.closed {
			db.deleteObsoleteFilesLocked()
		}
	}
	db.mu.Unlock()
	db.flushEvents()
}

func (db *DB) copyFile(src, dst string) error {
	in, err := db.fs.Open(src)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }()
	return vfs.WriteDurable(db.fs, dst, func(out io.Writer) error {
		_, err := io.Copy(out, in)
		return err
	})
}
