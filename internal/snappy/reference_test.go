package snappy

import "encoding/binary"

// The codec this package shipped before its kernels were rewritten, kept
// as the test-only reference the differential tests and FuzzSnappyDecode
// compare against: a decoder that copies matches one byte at a time and a
// single-probe encoder over a full-size, freshly zeroed hash table. Both
// are deliberately naive; neither is reachable from non-test code.

// refDecode is the reference decoder.
func refDecode(dst, src []byte) ([]byte, error) {
	dLen, err := DecodedLen(src)
	if err != nil {
		return nil, err
	}
	_, w := binary.Uvarint(src)
	src = src[w:]
	if cap(dst) < dLen {
		dst = make([]byte, dLen)
	} else {
		dst = dst[:dLen]
	}

	var d, s int
	for s < len(src) {
		tag := src[s]
		switch tag & 0x03 {
		case tagLiteral:
			x := int(tag >> 2)
			s++
			if x >= 60 {
				extra := x - 59
				if s+extra > len(src) {
					return nil, ErrCorrupt
				}
				x = 0
				for i := extra - 1; i >= 0; i-- {
					x = x<<8 | int(src[s+i])
				}
				s += extra
			}
			length := x + 1
			if length <= 0 || s+length > len(src) || d+length > dLen {
				return nil, ErrCorrupt
			}
			copy(dst[d:], src[s:s+length])
			d += length
			s += length

		case tagCopy1:
			if s+2 > len(src) {
				return nil, ErrCorrupt
			}
			length := int(tag>>2)&0x07 + 4
			offset := int(tag>>5)<<8 | int(src[s+1])
			s += 2
			if err := refCopyMatch(dst, &d, dLen, offset, length); err != nil {
				return nil, err
			}

		case tagCopy2:
			if s+3 > len(src) {
				return nil, ErrCorrupt
			}
			length := int(tag>>2) + 1
			offset := int(binary.LittleEndian.Uint16(src[s+1 : s+3]))
			s += 3
			if err := refCopyMatch(dst, &d, dLen, offset, length); err != nil {
				return nil, err
			}

		case tagCopy4:
			if s+5 > len(src) {
				return nil, ErrCorrupt
			}
			length := int(tag>>2) + 1
			offset := int(binary.LittleEndian.Uint32(src[s+1 : s+5]))
			s += 5
			if err := refCopyMatch(dst, &d, dLen, offset, length); err != nil {
				return nil, err
			}
		}
	}
	if d != dLen {
		return nil, ErrCorrupt
	}
	return dst, nil
}

func refCopyMatch(dst []byte, d *int, dLen, offset, length int) error {
	if offset <= 0 || offset > *d || *d+length > dLen {
		return ErrCorrupt
	}
	for i := 0; i < length; i++ {
		dst[*d+i] = dst[*d+i-offset]
	}
	*d += length
	return nil
}

// refEncode is the reference encoder.
func refEncode(dst, src []byte) []byte {
	n := MaxEncodedLen(len(src))
	if cap(dst) < n {
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
			d += refEncodeBlock(dst[d:], p)
		}
	}
	return dst[:d]
}

func refHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - 14) }

func refEncodeBlock(dst, src []byte) int {
	var table [1 << 14]uint16

	sLimit := len(src) - inputMargin
	d := 0
	nextEmit := 0
	s := 1
	nextHash := refHash(load32(src, s))

	for {
		skip := 32
		nextS := s
		candidate := 0
		for {
			s = nextS
			bytesBetweenHashLookups := skip >> 5
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = int(table[nextHash])
			table[nextHash] = uint16(s)
			nextHash = refHash(load32(src, nextS))
			if load32(src, s) == load32(src, candidate) {
				break
			}
		}

		d += emitLiteral(dst[d:], src[nextEmit:s])

		for {
			base := s
			s += 4
			i := candidate + 4
			for s < len(src) && src[i] == src[s] {
				i++
				s++
			}
			d += emitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			x := load32(src, s-1)
			prevHash := refHash(x)
			table[prevHash] = uint16(s - 1)
			x = load32(src, s)
			currHash := refHash(x)
			candidate = int(table[currHash])
			table[currHash] = uint16(s)
			if x != load32(src, candidate) {
				nextHash = refHash(load32(src, s+1))
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
