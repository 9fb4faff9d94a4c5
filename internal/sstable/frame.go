package sstable

import (
	"encoding/binary"
	"fmt"
	"io"

	"fcae/internal/crc"
	"fcae/internal/snappy"
)

// Block framing: a stored block is its payload, one type byte naming the
// payload's codec, and a CRC-32C over both. This file is the only place
// that layout is known — checkHandle and verifyBlock check it, DecodeBlock
// and EncodeBlock map between payload and contents, sealBlock closes it —
// so every path that reads or writes a table (point reads, iterators, the
// compaction scanner, the engine's device images and its host-side
// assembler, the table writer) agrees on it by construction.

// readBlock reads the block at h into *buf, growing it when it is too
// small, and verifies the checksum. The payload aliases *buf. It is
// checkHandle, one read of exactly the block, and verifyBlock; the
// scanner's window (scan.go) puts a different fetch between the same two.
func (r *Reader) readBlock(h Handle, buf *[]byte) (ctype byte, payload []byte, err error) {
	if err := r.checkHandle(h); err != nil {
		return 0, nil, err
	}
	n := int(h.Size) + BlockTrailerSize
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	raw := (*buf)[:n]
	if _, err := r.readAt(raw, int64(h.Offset)); err != nil {
		return 0, nil, err
	}
	return verifyBlock(h, raw)
}

// checkHandle holds h and its trailer to the file's size. No checksum
// covers the footer's handles, and an index block's can be forged with
// it, so this runs before h sizes a buffer or places a read.
func (r *Reader) checkHandle(h Handle) error {
	if size := uint64(r.size); h.Size > size || h.Offset > size-h.Size || size-h.Size-h.Offset < BlockTrailerSize {
		return fmt.Errorf("%w: block at offset %d, %d bytes, lies outside the file's %d", ErrCorrupt, h.Offset, h.Size, r.size)
	}
	return nil
}

// readAt fills p from the file at off and returns how much of it was
// filled. Every caller has held off+len(p) to the size the reader was
// opened with, so a read that ends early means the file is shorter than
// the manifest or the caller's stat recorded: damage, not end of input.
func (r *Reader) readAt(p []byte, off int64) (int, error) {
	n, err := r.f.ReadAt(p, off)
	if n == len(p) {
		return n, nil
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = fmt.Errorf("%w: file ends at offset %d, short of its recorded %d bytes", ErrCorrupt, off+int64(n), r.size)
	}
	return n, err
}

// verifyBlock checks the stored block raw (payload and trailer, read from
// h) against its checksum and splits it.
func verifyBlock(h Handle, raw []byte) (ctype byte, payload []byte, err error) {
	payload, trailer := raw[:h.Size], raw[h.Size:]
	if crc.Extend(crc.Value(payload), trailer[:1]) != binary.LittleEndian.Uint32(trailer[1:]) {
		return 0, nil, fmt.Errorf("%w: block checksum mismatch at offset %d", ErrCorrupt, h.Offset)
	}
	return trailer[0], payload, nil
}

// DecodeBlock returns the contents of a stored block given its type byte
// and payload. An uncompressed payload is its own contents and is
// returned as is; a compressed one is decoded into *scratch, which grows
// when too small and whose old contents are overwritten.
func DecodeBlock(scratch *[]byte, ctype byte, payload []byte) ([]byte, error) {
	switch Compression(ctype) {
	case NoCompression:
		return payload, nil
	case SnappyCompression:
		contents, err := snappy.Decode(*scratch, payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		*scratch = contents
		return contents, nil
	default:
		return nil, fmt.Errorf("%w: unknown compression %d", ErrCorrupt, ctype)
	}
}

// EncodeBlock returns the type byte and payload contents are stored as
// under c. Compression is kept only when it saves an eighth, as LevelDB
// does; otherwise the payload is contents itself. A compressed payload
// lives in *scratch (grown when too small); enc is the caller's
// match-finder state and may be nil under NoCompression.
func EncodeBlock(enc *snappy.Encoder, scratch *[]byte, contents []byte, c Compression) (ctype byte, payload []byte) {
	if c == SnappyCompression {
		*scratch = enc.Encode((*scratch)[:0], contents)
		if len(*scratch) < len(contents)-len(contents)/8 {
			return byte(SnappyCompression), *scratch
		}
	}
	return byte(NoCompression), contents
}

// sealBlock fills in the trailer of a payload stored under ctype. The
// trailer is the caller's (a local would escape into the checksum call,
// once per block).
func sealBlock(t *[BlockTrailerSize]byte, ctype byte, payload []byte) {
	sealSum(t, ctype, PayloadSum(payload))
}

// PayloadSum is the checksum of a block's payload alone, which its
// trailer extends over the type byte: a block's author may take it where
// it encodes the block and hand it to Assembler.AddBlock.
func PayloadSum(payload []byte) uint32 { return crc.Value(payload) }

// sealSum is sealBlock for a payload whose PayloadSum is sum.
func sealSum(t *[BlockTrailerSize]byte, ctype byte, sum uint32) {
	t[0] = ctype
	binary.LittleEndian.PutUint32(t[1:], crc.Extend(sum, t[:1]))
}
