package lsm

import (
	"encoding/binary"

	"fcae/internal/corruption"
	"fcae/internal/keys"
)

// Batch collects writes for atomic commit. The wire format matches the WAL
// record layout: an 8-byte base sequence, a 4-byte count, then per-record
// kind byte + length-prefixed key (+ value for sets).
type Batch struct {
	rep   []byte
	count uint32
}

const batchHeaderSize = 12

// ErrBatchCorrupt reports a malformed batch replayed from the WAL.
var ErrBatchCorrupt = corruption.New("lsm: corrupt write batch")

// init gives an empty batch its header, in the buffer a Reset kept when
// there is one: a reused batch does not regrow from nothing.
func (b *Batch) init() {
	if len(b.rep) > 0 {
		return
	}
	if cap(b.rep) < batchHeaderSize {
		b.rep = make([]byte, 0, 256)
	}
	b.rep = b.rep[:batchHeaderSize]
}

// Put queues a key/value set.
func (b *Batch) Put(key, value []byte) {
	b.init()
	b.rep = append(b.rep, byte(keys.KindSet))
	b.rep = appendLenPrefixed(b.rep, key)
	b.rep = appendLenPrefixed(b.rep, value)
	b.count++
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.init()
	b.rep = append(b.rep, byte(keys.KindDelete))
	b.rep = appendLenPrefixed(b.rep, key)
	b.count++
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return int(b.count) }

// Size returns the encoded byte size.
func (b *Batch) Size() int {
	b.init()
	return len(b.rep)
}

// Reset clears the batch for reuse, keeping its buffer. Write copies
// what it needs, so the buffer is the caller's again once Write returns.
func (b *Batch) Reset() {
	b.rep = b.rep[:0]
	b.count = 0
}

func appendLenPrefixed(dst, b []byte) []byte {
	var tmp [binary.MaxVarintLen32]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(b)))]...)
	return append(dst, b...)
}

// seal stamps the base sequence and count, returning the wire form.
func (b *Batch) seal(baseSeq uint64) []byte {
	b.init()
	binary.LittleEndian.PutUint64(b.rep[0:8], baseSeq)
	binary.LittleEndian.PutUint32(b.rep[8:12], b.count)
	return b.rep
}

// iterate decodes rep, invoking fn for each record with its sequence.
func batchIterate(rep []byte, fn func(seq uint64, kind keys.Kind, key, value []byte) error) error {
	if len(rep) < batchHeaderSize {
		return ErrBatchCorrupt
	}
	seq := binary.LittleEndian.Uint64(rep[0:8])
	count := binary.LittleEndian.Uint32(rep[8:12])
	p := rep[batchHeaderSize:]
	for i := uint32(0); i < count; i++ {
		if len(p) == 0 {
			return ErrBatchCorrupt
		}
		kind := keys.Kind(p[0])
		p = p[1:]
		var key, value []byte
		var err error
		if key, p, err = readLenPrefixed(p); err != nil {
			return err
		}
		if kind == keys.KindSet {
			if value, p, err = readLenPrefixed(p); err != nil {
				return err
			}
		} else if kind != keys.KindDelete {
			return ErrBatchCorrupt
		}
		if err := fn(seq+uint64(i), kind, key, value); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return ErrBatchCorrupt
	}
	return nil
}

func readLenPrefixed(p []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || uint64(len(p)-w) < n {
		return nil, nil, ErrBatchCorrupt
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// batchSeq extracts the base sequence from a wire batch.
func batchSeq(rep []byte) (uint64, uint32, error) {
	if len(rep) < batchHeaderSize {
		return 0, 0, ErrBatchCorrupt
	}
	return binary.LittleEndian.Uint64(rep[0:8]), binary.LittleEndian.Uint32(rep[8:12]), nil
}
