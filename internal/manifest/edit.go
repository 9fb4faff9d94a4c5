// Package manifest tracks the set of live SSTables across levels: versions,
// version edits logged to the MANIFEST file, and compaction picking. This
// is the substrate the paper's host-side scheduler (paper §IV step 1-2 and
// §VI-A) consults to decide which SSTables participate in a compaction and
// whether the job fits the FPGA's N-input limit.
package manifest

import (
	"encoding/binary"
	"fmt"

	"fcae/internal/corruption"
)

// NumLevels is the number of on-disk levels (L0..L6), matching LevelDB.
const NumLevels = 7

// FileMetadata describes one live SSTable. It is immutable once
// installed: Version.Apply shares the pointer between versions, and readers
// hold it without the store's lock.
type FileMetadata struct {
	Num      uint64
	Size     uint64
	Smallest []byte // smallest internal key
	Largest  []byte // largest internal key

	// RunID groups files into sorted runs. Files within one run are
	// disjoint and sorted; different runs of a level may overlap (tiered /
	// lazy compaction, the paper's §VII-C scenario). Leveled levels >= 1
	// use RunID 0 for the whole level; L0 files and tiered runs carry
	// unique ids, larger = more recent.
	RunID uint64
}

// DeletedFile identifies a table removed from a level.
type DeletedFile struct {
	Level int
	Num   uint64
}

// NewFile identifies a table added to a level.
type NewFile struct {
	Level int
	Meta  *FileMetadata
}

// VersionEdit is a delta between two versions, durably logged to MANIFEST.
type VersionEdit struct {
	HasLogNum      bool
	LogNum         uint64
	HasNextFileNum bool
	NextFileNum    uint64
	HasLastSeq     bool
	LastSeq        uint64

	Deleted []DeletedFile
	Added   []NewFile
}

// Edit record field tags.
const (
	tagLogNum      = 1
	tagNextFileNum = 2
	tagLastSeq     = 3
	// tagCompactPointer (a level and an internal key) is read and dropped:
	// older MANIFESTs carry LevelDB's round-robin pointer, which no pick
	// reads any more.
	tagCompactPointer = 4
	tagDeletedFile    = 5
	tagNewFile        = 6
	tagNewFileRun     = 7 // tagNewFile plus a run id
)

// ErrCorruptEdit reports a malformed manifest record.
var ErrCorruptEdit = corruption.New("manifest: corrupt version edit")

// SetLogNum records the WAL number whose contents are reflected on disk.
func (e *VersionEdit) SetLogNum(n uint64) { e.HasLogNum, e.LogNum = true, n }

// SetNextFileNum records the next unallocated file number.
func (e *VersionEdit) SetNextFileNum(n uint64) { e.HasNextFileNum, e.NextFileNum = true, n }

// SetLastSeq records the newest durable sequence number.
func (e *VersionEdit) SetLastSeq(n uint64) { e.HasLastSeq, e.LastSeq = true, n }

// DeleteFile marks a table as removed.
func (e *VersionEdit) DeleteFile(level int, num uint64) {
	e.Deleted = append(e.Deleted, DeletedFile{Level: level, Num: num})
}

// AddFile records a new table at level.
func (e *VersionEdit) AddFile(level int, meta *FileMetadata) {
	e.Added = append(e.Added, NewFile{Level: level, Meta: meta})
}

func putUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func putBytes(dst, b []byte) []byte {
	dst = putUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Encode serializes the edit into one manifest record.
func (e *VersionEdit) Encode() []byte {
	var buf []byte
	if e.HasLogNum {
		buf = putUvarint(buf, tagLogNum)
		buf = putUvarint(buf, e.LogNum)
	}
	if e.HasNextFileNum {
		buf = putUvarint(buf, tagNextFileNum)
		buf = putUvarint(buf, e.NextFileNum)
	}
	if e.HasLastSeq {
		buf = putUvarint(buf, tagLastSeq)
		buf = putUvarint(buf, e.LastSeq)
	}
	for _, d := range e.Deleted {
		buf = putUvarint(buf, tagDeletedFile)
		buf = putUvarint(buf, uint64(d.Level))
		buf = putUvarint(buf, d.Num)
	}
	for _, a := range e.Added {
		if a.Meta.RunID != 0 {
			buf = putUvarint(buf, tagNewFileRun)
			buf = putUvarint(buf, a.Meta.RunID)
		} else {
			buf = putUvarint(buf, tagNewFile)
		}
		buf = putUvarint(buf, uint64(a.Level))
		buf = putUvarint(buf, a.Meta.Num)
		buf = putUvarint(buf, a.Meta.Size)
		buf = putBytes(buf, a.Meta.Smallest)
		buf = putBytes(buf, a.Meta.Largest)
	}
	return buf
}

type editDecoder struct {
	buf []byte
}

func (d *editDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrCorruptEdit
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *editDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.buf)) < n {
		return nil, ErrCorruptEdit
	}
	b := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return b, nil
}

func (d *editDecoder) level() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= NumLevels {
		return 0, fmt.Errorf("%w: level %d out of range", ErrCorruptEdit, v)
	}
	return int(v), nil
}

// DecodeEdit parses a manifest record into an edit.
func DecodeEdit(record []byte) (*VersionEdit, error) {
	e := &VersionEdit{}
	d := editDecoder{buf: record}
	for len(d.buf) > 0 {
		tag, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagLogNum:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetLogNum(v)
		case tagNextFileNum:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetNextFileNum(v)
		case tagLastSeq:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetLastSeq(v)
		case tagCompactPointer:
			if _, err := d.level(); err != nil {
				return nil, err
			}
			if _, err := d.bytes(); err != nil {
				return nil, err
			}
		case tagDeletedFile:
			level, err := d.level()
			if err != nil {
				return nil, err
			}
			num, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.DeleteFile(level, num)
		case tagNewFile, tagNewFileRun:
			var runID uint64
			var err error
			if tag == tagNewFileRun {
				if runID, err = d.uvarint(); err != nil {
					return nil, err
				}
			}
			level, err := d.level()
			if err != nil {
				return nil, err
			}
			num, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			size, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			smallest, err := d.bytes()
			if err != nil {
				return nil, err
			}
			largest, err := d.bytes()
			if err != nil {
				return nil, err
			}
			e.AddFile(level, &FileMetadata{Num: num, Size: size, RunID: runID, Smallest: smallest, Largest: largest})
		default:
			return nil, fmt.Errorf("%w: unknown tag %d", ErrCorruptEdit, tag)
		}
	}
	return e, nil
}
