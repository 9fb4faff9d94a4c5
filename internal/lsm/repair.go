package lsm

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"fcae/internal/keys"
	"fcae/internal/manifest"
	"fcae/internal/sstable"
	"fcae/internal/vfs"
	"fcae/internal/wal"
)

// Repair rebuilds a database whose MANIFEST/CURRENT metadata is lost or
// corrupt, from the table files alone: every readable .ldb file is scanned
// for its key range and entry sequences and re-registered at level 0 as
// its own sorted run, as LevelDB's RepairDB does. L0 is the one level
// whose runs may overlap, so the next L0 merge combines them like flushed
// tables, newest shadowing oldest by sequence number. Unreadable tables
// are renamed aside with a .corrupt suffix. Logs are replayed by the next
// Open; a damaged one, which Open might refuse, is renamed the same way
// and a fresh log under its name keeps the records ahead of the damage.
//
// Limitation (shared with LevelDB's RepairDB): recency across recovered
// tables is approximated by file number, so when multiple tables hold
// versions of the same user key, an overwrite performed shortly before a
// compaction of much older data can surface the older version. Sequence
// numbers inside each table are preserved exactly.
func Repair(dir string, opts Options) error { return repair(vfs.Default, dir, opts) }

func repair(fsys vfs.FS, dir string, opts Options) (err error) {
	opts = opts.WithDefaults()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}

	type tbl struct {
		num      uint64
		size     int64
		smallest []byte
		largest  []byte
		maxSeq   uint64
	}
	var tables []tbl
	var maxNum uint64
	var oldMeta []string

	for _, e := range entries {
		kind, num := parseFileName(e.Name())
		switch kind {
		case kindManifest, kindCurrent:
			oldMeta = append(oldMeta, e.Name())
			continue
		case kindWAL:
			if num > maxNum {
				maxNum = num
			}
			if err := salvageWAL(fsys, dir, num); err != nil {
				return fmt.Errorf("lsm: repair: salvage %06d.log: %w", num, err)
			}
			continue
		case kindTable:
		default:
			continue
		}
		if num > maxNum {
			maxNum = num
		}
		t, err := scanTable(fsys, dir, num, opts)
		if err != nil {
			// Quarantine the unreadable table rather than losing data
			// silently or blocking recovery. A table that could not be
			// moved aside stops the repair: left under its own name and
			// in no version, the next Open would delete it as obsolete.
			if rerr := fsys.Rename(tablePath(dir, num), tablePath(dir, num)+".corrupt"); rerr != nil {
				return fmt.Errorf("lsm: repair: quarantine unreadable table (%v): %w", err, rerr)
			}
			continue
		}
		tables = append(tables, tbl{num, t.size, t.smallest, t.largest, t.maxSeq})
	}

	// Discard the old metadata, which is being rebuilt — only now, so that
	// a repair stopped by a table it could not quarantine has not yet cost
	// the directory the manifest that names the others.
	for _, name := range oldMeta {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("lsm: repair: %w", err)
		}
	}

	vs, err := manifest.Open(fsys, dir, opts.ManifestConfig())
	if err != nil {
		return err
	}
	defer func() {
		// The rebuilt manifest must land on disk: a Close failure after
		// LogAndApply is a durability signal, not cleanup noise.
		if cerr := vs.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("lsm: repair: close manifest: %w", cerr)
		}
	}()

	edit := &manifest.VersionEdit{}
	var lastSeq uint64
	for _, t := range tables {
		// Each recovered table becomes its own sorted run; RunID follows
		// recency (file number), so newer tables shadow older ones.
		edit.AddFile(0, &manifest.FileMetadata{
			Num:      t.num,
			Size:     uint64(t.size),
			RunID:    t.num,
			Smallest: t.smallest,
			Largest:  t.largest,
		})
		if t.maxSeq > lastSeq {
			lastSeq = t.maxSeq
		}
	}
	edit.SetLastSeq(lastSeq)
	edit.SetNextFileNum(maxNum + 1)
	if err := vs.LogAndApply(edit); err != nil {
		return fmt.Errorf("lsm: repair: %w", err)
	}
	return nil
}

type scannedTable struct {
	size     int64
	smallest []byte
	largest  []byte
	maxSeq   uint64
}

// scanTable validates a table file end to end and extracts its bounds.
func scanTable(fsys vfs.FS, dir string, num uint64, opts Options) (*scannedTable, error) {
	f, err := fsys.Open(tablePath(dir, num))
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r, err := sstable.NewReader(f, st.Size(), opts.tableOpts(), nil, num)
	if err != nil {
		return nil, err
	}
	it := r.NewIterator()
	out := &scannedTable{size: st.Size()}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if out.smallest == nil {
			out.smallest = append([]byte(nil), it.Key()...)
		}
		out.largest = append(out.largest[:0], it.Key()...)
		if seq, _ := keys.DecodeTrailer(it.Key()); seq > out.maxSeq {
			out.maxSeq = seq
		}
	}
	if err := it.Error(); err != nil {
		return nil, err
	}
	if out.smallest == nil {
		return nil, fmt.Errorf("lsm: table %06d is empty", num)
	}
	out.largest = append([]byte(nil), out.largest...)
	return out, nil
}

// salvageWAL reads log num end to end. A damaged log is renamed with a
// .corrupt suffix, and a fresh log under its name takes the records ahead
// of the damage.
func salvageWAL(fsys vfs.FS, dir string, num uint64) error {
	path := walPath(dir, num)
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	r := wal.NewReader(f, walCRC)
	for err == nil {
		_, err = r.Next()
	}
	if err == io.EOF {
		return nil
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		return err
	}
	if err := fsys.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	return vfs.WriteDurable(fsys, path, func(out io.Writer) error {
		_, err := io.Copy(out, io.NewSectionReader(f, 0, r.Offset()))
		return err
	})
}
