// Package snappy implements the Snappy block compression format from
// scratch using only the standard library. The paper's engine compresses
// and decompresses SSTable data blocks with Snappy (§V-A: "the Snappy
// compression method is often applied to save storage space. As a result,
// decompression is needed in Decoder"); both the software store and the
// FCAE simulator use this codec so output tables stay format-compatible.
//
// The implemented format is the raw block format: a uvarint preamble with
// the decoded length followed by a sequence of literal and copy elements.
package snappy

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

var (
	// ErrCorrupt is returned when decoding malformed input.
	ErrCorrupt = errors.New("snappy: corrupt input")
	// ErrTooLarge is returned when the decoded length exceeds the
	// implementation limit.
	ErrTooLarge = errors.New("snappy: decoded block is too large")
)

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	// maxBlockSize is the largest source block compressed as one unit;
	// inputs larger than this are split (matching the reference codec).
	maxBlockSize = 65536

	// maxDecodedLen bounds decode allocations against hostile input.
	maxDecodedLen = 1 << 30

	inputMargin            = 16 - 1
	minNonLiteralBlockSize = 1 + 1 + inputMargin
)

// MaxEncodedLen returns the worst-case encoded length for a source of n
// bytes, or -1 if n is negative or too large.
func MaxEncodedLen(n int) int {
	if n < 0 || uint64(n) > 0xffffffff {
		return -1
	}
	// Preamble plus one literal tag per 6 source bytes in the worst case,
	// matching the reference formula 32 + n + n/6.
	return 32 + n + n/6
}

// DecodedLen returns the decoded length of src without decoding it.
func DecodedLen(src []byte) (int, error) {
	n, _, err := decodedLen(src)
	return n, err
}

// decodedLen parses the preamble: the decoded length and the preamble's
// own width in bytes.
func decodedLen(src []byte) (n, width int, err error) {
	v, w := binary.Uvarint(src)
	if w <= 0 {
		return 0, 0, ErrCorrupt
	}
	if v > maxDecodedLen {
		return 0, 0, ErrTooLarge
	}
	return int(v), w, nil
}

// Decode decompresses src and returns the decoded bytes. dst is scratch
// for the output: when its capacity covers the decoded length the result
// aliases dst[:n] and nothing is allocated, otherwise a new buffer is
// returned. Whatever dst held is overwritten, never appended to.
func Decode(dst, src []byte) ([]byte, error) {
	dLen, w, err := decodedLen(src)
	if err != nil {
		return nil, err
	}
	src = src[w:]
	if cap(dst) < dLen {
		//fcae:alloc-ok grow-on-demand scratch: callers pass a reused dst, so steady state re-slices
		dst = make([]byte, dLen)
	} else {
		dst = dst[:dLen]
	}

	// Every element is checked against both buffers before a byte moves:
	// the wide copies below may write up to 16 bytes for a shorter
	// element, but only where those 16 bytes lie inside dst[:dLen] (a
	// later element overwrites the excess, or the final d != dLen check
	// rejects the stream).
	var d, s int
	for s < len(src) {
		tag := src[s]
		var length, offset int
		switch tag & 0x03 {
		case tagLiteral:
			x := uint32(tag >> 2)
			switch {
			case x < 60:
				s++
			case x == 60:
				s += 2
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-1])
			case x == 61:
				s += 3
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-2]) | uint32(src[s-1])<<8
			case x == 62:
				s += 4
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = uint32(src[s-3]) | uint32(src[s-2])<<8 | uint32(src[s-1])<<16
			default:
				s += 5
				if s > len(src) {
					return nil, ErrCorrupt
				}
				x = binary.LittleEndian.Uint32(src[s-4 : s])
			}
			length = int(x) + 1
			if length <= 0 || length > len(src)-s || length > dLen-d {
				return nil, ErrCorrupt
			}
			if length <= 16 && len(src)-s >= 16 && dLen-d >= 16 {
				copy16(dst[d:d+16], src[s:s+16])
			} else {
				copy(dst[d:d+length], src[s:s+length])
			}
			d += length
			s += length
			continue

		case tagCopy1:
			if s+2 > len(src) {
				return nil, ErrCorrupt
			}
			length = int(tag>>2)&0x07 + 4
			offset = int(tag>>5)<<8 | int(src[s+1])
			s += 2

		case tagCopy2:
			if s+3 > len(src) {
				return nil, ErrCorrupt
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint16(src[s+1 : s+3]))
			s += 3

		case tagCopy4:
			if s+5 > len(src) {
				return nil, ErrCorrupt
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint32(src[s+1 : s+5]))
			s += 5
		}

		// A back-reference, which may overlap its own output.
		if offset <= 0 || offset > d || length > dLen-d {
			return nil, ErrCorrupt
		}
		switch {
		case length <= 16 && offset >= 8 && dLen-d >= 16:
			// Two 8-byte moves. offset >= 8 keeps each move's source clear
			// of its own destination; the second may read what the first
			// wrote, which is exactly the overlap semantics.
			copy16(dst[d:d+16], dst[d-offset:d-offset+16])
		case offset >= length:
			copy(dst[d:d+length], dst[d-offset:])
		default:
			// Overlapping: dst[d-offset:d] is a pattern to repeat. Each
			// pass copies everything produced so far, doubling the run.
			end := d + length
			for p, e := d-offset, d; e < end; {
				e += copy(dst[e:end], dst[p:e])
			}
		}
		d += length
	}
	if d != dLen {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// copy16 moves 16 bytes as two 8-byte words, first word first, so a
// source that overlaps the destination from at least 8 bytes behind
// reads what the first store wrote.
func copy16(dst, src []byte) {
	_, _ = dst[15], src[15]
	binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
	binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:]))
}

// Encoder compresses blocks with a match-finder hash table that is kept
// between calls, so a caller on a hot path (a table writer, an encode
// worker, an engine output lane) pays for the table once. Only the part
// of the table a block uses is cleared before that block, so the output
// never depends on what the Encoder compressed before. The zero value is
// ready to use; an Encoder must not be used by two goroutines at once.
type Encoder struct {
	table [maxTableSize]uint16
}

// encoders lends an Encoder to callers of the package-level Encode.
var encoders = sync.Pool{New: func() interface{} { return new(Encoder) }}

// Encode compresses src, returning the encoded block. dst is used when
// large enough. It is Encoder.Encode on a borrowed Encoder, for callers
// with no state of their own to keep one in.
func Encode(dst, src []byte) []byte {
	e := encoders.Get().(*Encoder)
	dst = e.Encode(dst, src)
	encoders.Put(e)
	return dst
}

// Encode compresses src, returning the encoded block. dst is used when
// large enough.
func (e *Encoder) Encode(dst, src []byte) []byte {
	n := MaxEncodedLen(len(src))
	if n < 0 {
		panic("snappy: source too large")
	}
	if cap(dst) < n {
		//fcae:alloc-ok grow-on-demand scratch: callers pass a reused dst, so steady state re-slices
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}

	d := binary.PutUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		p := src
		if len(p) > maxBlockSize {
			p, src = p[:maxBlockSize], src[maxBlockSize:]
		} else {
			src = nil
		}
		if len(p) < minNonLiteralBlockSize {
			d += emitLiteral(dst[d:], p)
		} else {
			d += e.encodeBlock(dst[d:], p)
		}
	}
	return dst[:d]
}

func emitLiteral(dst, lit []byte) int {
	i := 0
	n := len(lit) - 1
	switch {
	case n < 60:
		dst[0] = byte(n)<<2 | tagLiteral
		i = 1
	case n < 1<<8:
		dst[0] = 60<<2 | tagLiteral
		dst[1] = byte(n)
		i = 2
	case n < 1<<16:
		dst[0] = 61<<2 | tagLiteral
		dst[1] = byte(n)
		dst[2] = byte(n >> 8)
		i = 3
	case n < 1<<24:
		dst[0] = 62<<2 | tagLiteral
		dst[1] = byte(n)
		dst[2] = byte(n >> 8)
		dst[3] = byte(n >> 16)
		i = 4
	default:
		dst[0] = 63<<2 | tagLiteral
		binary.LittleEndian.PutUint32(dst[1:], uint32(n))
		i = 5
	}
	return i + copy(dst[i:], lit)
}

// emitCopy writes copy elements for a match of the given offset/length.
func emitCopy(dst []byte, offset, length int) int {
	i := 0
	// Emit 64-byte copies while the remaining length is large.
	for length >= 68 {
		dst[i] = 63<<2 | tagCopy2
		binary.LittleEndian.PutUint16(dst[i+1:], uint16(offset))
		i += 3
		length -= 64
	}
	if length > 64 {
		// Leave at least 4 bytes for the final copy.
		dst[i] = 59<<2 | tagCopy2
		binary.LittleEndian.PutUint16(dst[i+1:], uint16(offset))
		i += 3
		length -= 60
	}
	if length >= 12 || offset >= 2048 {
		dst[i] = byte(length-1)<<2 | tagCopy2
		binary.LittleEndian.PutUint16(dst[i+1:], uint16(offset))
		return i + 3
	}
	dst[i] = byte(offset>>8)<<5 | byte(length-4)<<2 | tagCopy1
	dst[i+1] = byte(offset)
	return i + 2
}

const (
	// The hash table has between minTableSize and maxTableSize entries,
	// the smallest power of two that covers the block, as in the
	// reference codec: a 4 KiB data block fills (and clears) 8 or 16 KiB
	// of table, not all 32.
	minTableBits = 8
	maxTableBits = 14
	maxTableSize = 1 << maxTableBits
	tableMask    = maxTableSize - 1
)

func hash(u, shift uint32) uint32 {
	return (u * 0x1e35a7bd) >> shift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i : i+4])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i : i+8])
}

// encodeBlock compresses one block (minNonLiteralBlockSize <= len(src) <=
// maxBlockSize) with a greedy hash match finder, like the reference
// implementation, and returns the bytes written to dst.
func (e *Encoder) encodeBlock(dst, src []byte) int {
	shift := uint32(32 - minTableBits)
	tableSize := 1 << minTableBits
	for tableSize < maxTableSize && tableSize < len(src) {
		tableSize *= 2
		shift--
	}
	// Indexing through &tableMask lets the compiler drop the bounds
	// checks; hash never produces more than tableSize anyway.
	table := &e.table
	clear(table[:tableSize])

	// sLimit is where the search for matches stops: past it, fewer than
	// inputMargin bytes remain, which is what lets the loops below load 8
	// bytes at s without a length check.
	sLimit := len(src) - inputMargin
	d := 0
	nextEmit := 0
	// The block must start with a literal (nothing to copy from yet).
	s := 1

	for {
		// Scan for a match. One 64-bit load serves three positions: s,
		// s+1 and s+2 are hashed from it, entered into the table and
		// their candidates compared, then s moves on by 3 plus one for
		// every 16 bytes since the last match, so incompressible input
		// is skipped over ever faster. At every distance d that is still
		// a denser search than the reference codec's (three positions in
		// 3+d/16 against one in 1+d/32).
		candidate := 0
		for {
			if s+2 > sLimit {
				goto emitRemainder
			}
			x := load64(src, s)
			h0 := hash(uint32(x), shift) & tableMask
			h1 := hash(uint32(x>>8), shift) & tableMask
			h2 := hash(uint32(x>>16), shift) & tableMask
			candidate = int(table[h0])
			table[h0] = uint16(s)
			if uint32(x) == load32(src, candidate) {
				break
			}
			candidate = int(table[h1])
			table[h1] = uint16(s + 1)
			if uint32(x>>8) == load32(src, candidate) {
				s++
				break
			}
			candidate = int(table[h2])
			table[h2] = uint16(s + 2)
			if uint32(x>>16) == load32(src, candidate) {
				s += 2
				break
			}
			s += 3 + (s-nextEmit)>>4
		}

		// A strided scan can land in the middle of a match: take back the
		// bytes before s that match too.
		for candidate > 0 && s > nextEmit && src[candidate-1] == src[s-1] {
			candidate--
			s--
		}
		if nextEmit < s {
			d += emitLiteral(dst[d:], src[nextEmit:s])
		}

		// Emit copies for as long as one match is followed at once by the
		// next.
		for {
			base := s
			s += 4
			i := candidate + 4
			// Extend the match eight bytes at a time; the first differing
			// byte is the lowest set bit of the XOR.
			for s+8 <= len(src) {
				if diff := load64(src, s) ^ load64(src, i); diff != 0 {
					s += bits.TrailingZeros64(diff) >> 3
					goto extended
				}
				s += 8
				i += 8
			}
			for s < len(src) && src[i] == src[s] {
				i++
				s++
			}
		extended:
			d += emitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// Enter s-1 and look s up, again from one load.
			x := load64(src, s-1)
			hPrev := hash(uint32(x), shift) & tableMask
			hCur := hash(uint32(x>>8), shift) & tableMask
			table[hPrev] = uint16(s - 1)
			candidate = int(table[hCur])
			table[hCur] = uint16(s)
			if uint32(x>>8) != load32(src, candidate) {
				s++
				break
			}
		}
	}

emitRemainder:
	if nextEmit < len(src) {
		d += emitLiteral(dst[d:], src[nextEmit:])
	}
	return d
}
