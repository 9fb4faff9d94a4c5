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
	"slices"

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

// maxRetainedGather bounds the gather buffer a Writer keeps between
// records: one huge record may grow it past this, and that is not kept.
const maxRetainedGather = 2 << 20

// Writer appends logical records to an io.Writer, one Write per record.
type Writer struct {
	w        io.Writer
	blockOff int // offset within the current block
	crc      crcFunc
	written  int64
	// gather is where Append lays a record out as it will lie in the
	// file — fragment headers, payloads, block padding — so that the
	// file gets it in one Write.
	gather []byte
	syncer interface{ Sync() error }
}

// NewWriter returns a Writer emitting records to w. If w implements Sync,
// Writer.Sync calls it.
func NewWriter(w io.Writer, crc crcFunc) *Writer {
	nw := &Writer{w: w, crc: crc}
	if s, ok := w.(interface{ Sync() error }); ok {
		nw.syncer = s
	}
	return nw
}

// Append writes one logical record, fragmenting across blocks as needed.
// The whole record — every fragment and any padding before it — goes to
// the io.Writer in a single Write before Append returns, and the writer's
// position moves only if that Write succeeded.
func (w *Writer) Append(record []byte) error {
	// Sized up front so a long record does not regrow it: the payload, a
	// header per block it touches, one more for a first fragment in a
	// block's tail, and less than a header of padding.
	buf := slices.Grow(w.gather[:0], len(record)+headerSize*(len(record)/(BlockSize-headerSize)+3))
	blockOff := w.blockOff
	for begin := true; ; begin = false {
		leftover := BlockSize - blockOff
		if leftover < headerSize {
			// Fill trailer with zeros; readers skip it.
			var zeros [headerSize]byte
			buf = append(buf, zeros[:leftover]...)
			blockOff = 0
			leftover = BlockSize
		}
		frag := record[:min(len(record), leftover-headerSize)]
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
		buf = binary.LittleEndian.AppendUint32(buf, w.crc(byte(t), frag))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(frag)))
		buf = append(buf, byte(t))
		buf = append(buf, frag...)
		blockOff += headerSize + len(frag)
		if end {
			break
		}
	}
	if cap(buf) <= maxRetainedGather {
		w.gather = buf
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.blockOff = blockOff
	w.written += int64(len(buf))
	return nil
}

// Size returns the bytes written so far.
func (w *Writer) Size() int64 { return w.written }

// Sync syncs the underlying file if it supports it.
func (w *Writer) Sync() error {
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
	base    int64 // file offset of block
	whole   int64 // file offset just past the last record Next returned
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
			r.whole = r.base + int64(r.off)
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
			r.whole = r.base + int64(r.off)
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
			// Where the next record starts is unknown: resume at the
			// next block.
			r.off = r.n
			return 0, nil, ErrCorrupt
		}
		payload := r.block[r.off+headerSize : r.off+headerSize+length]
		want := binary.LittleEndian.Uint32(h[0:4])
		r.off += headerSize + length
		if r.crc(byte(t), payload) != want {
			return 0, nil, ErrCorrupt
		}
		return t, payload, nil
	}
}

// Offset is the length of the log's prefix that holds the records Next has
// returned: copied out, that prefix is a whole log of them.
func (r *Reader) Offset() int64 { return r.whole }

// DamageIsTail reports, once Next has returned ErrCorrupt, whether the
// damage is all the log has left: no record after it, in the same block or
// a later one, has a checksum that holds. Only such damage can be a write
// torn by a crash; anything else lost records that were whole. A damaged
// length field hides where the rest of its block's records start, so those
// go unchecked. It reads the rest of the log, so Next must not be called
// after it.
func (r *Reader) DamageIsTail() (bool, error) {
	for {
		_, _, err := r.nextPhysical()
		switch {
		case err == nil:
			return false, nil
		case err == io.EOF:
			return true, nil
		case err != ErrCorrupt:
			return false, err
		}
	}
}

// fill loads the next block from the underlying reader.
func (r *Reader) fill() error {
	if r.eof {
		return io.EOF
	}
	r.base += int64(r.n)
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
