// Package sstable implements the on-disk sorted table format shared by the
// software store and the FCAE engine (paper §II-B): a sequence of
// prefix-compressed data blocks followed by meta blocks, an index block
// whose entries map separator keys to data block handles, and a fixed
// footer. Each block carries a 1-byte compression type and a masked
// CRC-32C trailer.
package sstable

import (
	"encoding/binary"
	"fmt"

	"fcae/internal/corruption"
)

const (
	// BlockTrailerSize is the compression-type byte plus CRC.
	BlockTrailerSize = 5

	// FooterSize holds two block handles (padded) plus the magic number.
	FooterSize = 2*binary.MaxVarintLen64*2 + 8

	// Magic identifies the table format (spells "fcaetbl1").
	Magic = 0x6663616574626c31
)

// Compression identifies the per-block compression codec.
type Compression uint8

const (
	// NoCompression stores blocks raw.
	NoCompression Compression = 0
	// SnappyCompression compresses blocks with internal/snappy.
	SnappyCompression Compression = 1
)

// String names the codec ("none", "snappy").
func (c Compression) String() string {
	switch c {
	case NoCompression:
		return "none"
	case SnappyCompression:
		return "snappy"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(c))
	}
}

// ErrCorrupt reports a malformed or checksum-failing table region.
var ErrCorrupt = corruption.New("sstable: corrupt table")

// Handle locates a block within the file (offset and length exclude the
// block trailer).
type Handle struct {
	Offset uint64
	Size   uint64
}

// EncodeTo appends the varint encoding of h to dst.
func (h Handle) EncodeTo(dst []byte) []byte {
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], h.Offset)
	n += binary.PutUvarint(buf[n:], h.Size)
	return append(dst, buf[:n]...)
}

// DecodeHandle parses a handle from src, returning the remaining bytes.
func DecodeHandle(src []byte) (Handle, []byte, error) {
	off, n := binary.Uvarint(src)
	if n <= 0 {
		return Handle{}, nil, fmt.Errorf("%w: bad handle offset", ErrCorrupt)
	}
	src = src[n:]
	size, n := binary.Uvarint(src)
	if n <= 0 {
		return Handle{}, nil, fmt.Errorf("%w: bad handle size", ErrCorrupt)
	}
	return Handle{Offset: off, Size: size}, src[n:], nil
}

// Footer is the fixed-size table trailer locating the metaindex and index
// blocks.
type Footer struct {
	MetaIndex Handle
	Index     Handle
}

// Encode renders the footer into exactly FooterSize bytes.
func (f Footer) Encode() []byte { return f.AppendTo(make([]byte, 0, FooterSize)) }

// AppendTo appends the footer's FooterSize bytes to dst.
func (f Footer) AppendTo(dst []byte) []byte {
	start := len(dst)
	dst = f.MetaIndex.EncodeTo(dst)
	dst = f.Index.EncodeTo(dst)
	for len(dst)-start < FooterSize-8 {
		dst = append(dst, 0)
	}
	return binary.LittleEndian.AppendUint64(dst, Magic)
}

// DecodeFooter parses the footer from the final FooterSize bytes of a file.
func DecodeFooter(buf []byte) (Footer, error) {
	if len(buf) != FooterSize {
		return Footer{}, fmt.Errorf("%w: footer is %d bytes, want %d", ErrCorrupt, len(buf), FooterSize)
	}
	if binary.LittleEndian.Uint64(buf[FooterSize-8:]) != Magic {
		return Footer{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var f Footer
	var err error
	rest := buf[:FooterSize-8]
	if f.MetaIndex, rest, err = DecodeHandle(rest); err != nil {
		return Footer{}, err
	}
	if f.Index, _, err = DecodeHandle(rest); err != nil {
		return Footer{}, err
	}
	return f, nil
}
