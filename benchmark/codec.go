package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"fcae/internal/workload"
)

// Keys are 16 decimal digits, so numeric order is byte order and a scan's
// results can be checked against the ids it should have returned.
const keyLen = 16

func appendKey(dst []byte, id uint64) []byte {
	var b [keyLen]byte
	for i := keyLen - 1; i >= 0; i-- {
		b[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, b[:]...)
}

func parseKey(k []byte) (uint64, bool) {
	if len(k) != keyLen {
		return 0, false
	}
	var id uint64
	for _, c := range k {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
	}
	return id, true
}

// Values describe themselves: key id, version, then a CRC over both and
// the filler that pads the value to the workload's size. A reader needs
// nothing but the key it asked for and the last version it saw
// acknowledged to tell a correct result from a corrupted, misdirected or
// stale one.
const valueHeaderLen = 8 + 8 + 4

var (
	errValueCorrupt  = errors.New("value fails its checksum")
	errValueWrongKey = errors.New("value belongs to another key")
	errValueStale    = errors.New("value is older than the last acknowledged write")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// valueCodec builds and checks values. The filler comes from a fixed pool
// with db_bench's 0.5 compressibility, so snappy sees realistic input; the
// slice used is a function of (id, version).
type valueCodec struct {
	pool []byte
}

func newValueCodec(seed int64) *valueCodec {
	return &valueCodec{pool: workload.NewValueGen(1<<19, 0.5, seed).Value()}
}

// encode appends the size-byte value of (id, version) to dst.
func (c *valueCodec) encode(dst []byte, id, version uint64, size int) []byte {
	if size < valueHeaderLen {
		size = valueHeaderLen
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, version)
	dst = append(dst, 0, 0, 0, 0)
	fill := size - valueHeaderLen
	off := int((id*0x9E3779B97F4A7C15 + version*0xC2B2AE3D27D4EB4F) % uint64(len(c.pool)-fill))
	dst = append(dst, c.pool[off:off+fill]...)
	sum := crc32.Update(crc32.Checksum(dst[start:start+16], castagnoli), castagnoli, dst[start+valueHeaderLen:])
	binary.BigEndian.PutUint32(dst[start+16:], sum)
	return dst
}

// check verifies that val is an intact value of key id at version
// minVersion or later, and returns the version it carries.
func (c *valueCodec) check(val []byte, id, minVersion uint64) (uint64, error) {
	if len(val) < valueHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes", errValueCorrupt, len(val))
	}
	sum := crc32.Update(crc32.Checksum(val[:16], castagnoli), castagnoli, val[valueHeaderLen:])
	if sum != binary.BigEndian.Uint32(val[16:]) {
		return 0, errValueCorrupt
	}
	if got := binary.BigEndian.Uint64(val); got != id {
		return 0, fmt.Errorf("%w: asked for %d, got %d", errValueWrongKey, id, got)
	}
	version := binary.BigEndian.Uint64(val[8:])
	if version < minVersion {
		return version, fmt.Errorf("%w: key %d at version %d, acknowledged %d", errValueStale, id, version, minVersion)
	}
	return version, nil
}
