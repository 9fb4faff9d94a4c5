// Package wal implements the write-ahead log in the LevelDB log format:
// the file is a sequence of 32 KiB blocks, each holding physical records
//
//	checksum uint32  // masked CRC-32C of type+payload
//	length   uint16
//	type     uint8   // FULL, FIRST, MIDDLE, LAST
//	payload  []byte
//
// Logical records longer than the space left in a block are fragmented.
// The same format backs the MANIFEST (package manifest), matching the
// store the paper integrates with.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"

	"fcae/internal/corruption"
)

// BlockSize is the physical block size of the log file.
const BlockSize = 32 * 1024

// headerSize is the physical record header length.
const headerSize = 7

type recordType uint8

const (
	typeZero recordType = iota // reserved for preallocated files
	typeFull
	typeFirst
	typeMiddle
	typeLast
)

// ErrCorrupt reports a damaged log file region.
var ErrCorrupt = corruption.New("wal: corrupt record")

// crcFunc computes the masked checksum of type byte + payload.
type crcFunc func(t byte, payload []byte) uint32

// Writer appends logical records to an io.Writer.
type Writer struct {
	w          io.Writer
	blockOff   int // offset within the current block
	buf        [headerSize]byte
	crc        crcFunc
	written    int64
	flushAfter bool
	flusher    interface{ Flush() error }
	syncer     interface{ Sync() error }
}

// NewWriter returns a Writer emitting records to w. If w implements
// Flush/Sync those are used by the corresponding methods.
func NewWriter(w io.Writer, crc crcFunc) *Writer {
	nw := &Writer{w: w, crc: crc}
	if f, ok := w.(interface{ Flush() error }); ok {
		nw.flusher = f
	}
	if s, ok := w.(interface{ Sync() error }); ok {
		nw.syncer = s
	}
	return nw
}

// Append writes one logical record, fragmenting across blocks as needed.
func (w *Writer) Append(record []byte) error {
	begin := true
	for {
		leftover := BlockSize - w.blockOff
		if leftover < headerSize {
			// Fill trailer with zeros; readers skip it.
			if leftover > 0 {
				var zeros [headerSize]byte
				if _, err := w.w.Write(zeros[:leftover]); err != nil {
					return err
				}
				w.written += int64(leftover)
			}
			w.blockOff = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := record
		if len(frag) > avail {
			frag = frag[:avail]
		}
		record = record[len(frag):]
		end := len(record) == 0

		var t recordType
		switch {
		case begin && end:
			t = typeFull
		case begin:
			t = typeFirst
		case end:
			t = typeLast
		default:
			t = typeMiddle
		}
		if err := w.emit(t, frag); err != nil {
			return err
		}
		begin = false
		if end {
			return nil
		}
	}
}

func (w *Writer) emit(t recordType, payload []byte) error {
	binary.LittleEndian.PutUint32(w.buf[0:4], w.crc(byte(t), payload))
	binary.LittleEndian.PutUint16(w.buf[4:6], uint16(len(payload)))
	w.buf[6] = byte(t)
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.blockOff += headerSize + len(payload)
	w.written += int64(headerSize + len(payload))
	return nil
}

// Size returns the bytes written so far.
func (w *Writer) Size() int64 { return w.written }

// Flush flushes any buffering writer beneath the log.
func (w *Writer) Flush() error {
	if w.flusher != nil {
		return w.flusher.Flush()
	}
	return nil
}

// Sync flushes and then syncs the underlying file if it supports it.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if w.syncer != nil {
		return w.syncer.Sync()
	}
	return nil
}

// Reader reads logical records written by Writer. Torn or corrupt tails are
// reported via ErrCorrupt from Next; callers recovering a WAL typically
// stop at the first corruption, dropping the unsynced tail.
type Reader struct {
	r       io.Reader
	crc     crcFunc
	block   [BlockSize]byte
	n       int // valid bytes in block
	off     int // read offset in block
	eof     bool
	scratch []byte
}

// NewReader returns a Reader consuming records from r.
func NewReader(r io.Reader, crc crcFunc) *Reader {
	return &Reader{r: r, crc: crc}
}

// Next returns the next logical record, valid until the following call.
// io.EOF signals a clean end of log.
func (r *Reader) Next() ([]byte, error) {
	r.scratch = r.scratch[:0]
	inFragmented := false
	for {
		t, payload, err := r.nextPhysical()
		if err != nil {
			if err == io.EOF && inFragmented {
				// A record started but the log ended: torn write.
				return nil, ErrCorrupt
			}
			return nil, err
		}
		switch t {
		case typeFull:
			if inFragmented {
				return nil, ErrCorrupt
			}
			return payload, nil
		case typeFirst:
			if inFragmented {
				return nil, ErrCorrupt
			}
			inFragmented = true
			r.scratch = append(r.scratch, payload...)
		case typeMiddle:
			if !inFragmented {
				return nil, ErrCorrupt
			}
			r.scratch = append(r.scratch, payload...)
		case typeLast:
			if !inFragmented {
				return nil, ErrCorrupt
			}
			return append(r.scratch, payload...), nil
		default:
			return nil, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, t)
		}
	}
}

func (r *Reader) nextPhysical() (recordType, []byte, error) {
	for {
		if r.n-r.off < headerSize {
			if err := r.fill(); err != nil {
				return 0, nil, err
			}
			continue
		}
		h := r.block[r.off : r.off+headerSize]
		// A zero header means block trailer padding.
		if h[4] == 0 && h[5] == 0 && h[6] == byte(typeZero) {
			r.off = r.n // skip to next block
			continue
		}
		length := int(binary.LittleEndian.Uint16(h[4:6]))
		t := recordType(h[6])
		if r.off+headerSize+length > r.n {
			return 0, nil, ErrCorrupt
		}
		payload := r.block[r.off+headerSize : r.off+headerSize+length]
		want := binary.LittleEndian.Uint32(h[0:4])
		if r.crc(byte(t), payload) != want {
			return 0, nil, ErrCorrupt
		}
		r.off += headerSize + length
		return t, payload, nil
	}
}

// fill loads the next block from the underlying reader.
func (r *Reader) fill() error {
	if r.eof {
		return io.EOF
	}
	n, err := io.ReadFull(r.r, r.block[:])
	r.off = 0
	r.n = n
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		r.eof = true
		if n == 0 {
			return io.EOF
		}
		return nil
	}
	return err
}
