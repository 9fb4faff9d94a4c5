// Package bloom implements the bloom filter policy used in SSTable filter
// blocks, following LevelDB's double-hashing construction so the read path
// can skip data blocks that cannot contain a key.
package bloom

import "slices"

// Filter builds and queries bloom filters with a fixed bits-per-key budget.
type Filter struct {
	bitsPerKey int
	k          int // number of probes
}

// New returns a policy using about bitsPerKey bits per key. 10 bits/key
// yields a ~1% false positive rate.
func New(bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// k = ln(2) * bits/key rounded, clamped to [1,30].
	k := int(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return Filter{bitsPerKey: bitsPerKey, k: k}
}

// Name identifies the policy in the table's meta block.
func (f Filter) Name() string { return "fcae.BuiltinBloomFilter" }

// Hash is LevelDB's bloom hash (a Murmur-like mix): the 32 bits every
// probe position of a key is derived from, and so all a filter builder
// needs to keep of the key.
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	i := 0
	for ; i+4 <= len(data); i += 4 {
		w := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		h += w
		h *= m
		h ^= h >> 16
	}
	switch len(data) - i {
	case 3:
		h += uint32(data[i+2]) << 16
		fallthrough
	case 2:
		h += uint32(data[i+1]) << 8
		fallthrough
	case 1:
		h += uint32(data[i])
		h *= m
		h ^= h >> 24
	}
	return h
}

// Append builds a filter over keys and appends it to dst, returning the
// extended slice. The final byte records the probe count.
func (f Filter) Append(dst []byte, keys [][]byte) []byte {
	dst, array := f.grow(dst, len(keys))
	for _, key := range keys {
		f.set(array, Hash(key))
	}
	return dst
}

// AppendHashes is Append over keys the caller has already reduced to
// their Hash: the same bytes as Append over the keys themselves.
func (f Filter) AppendHashes(dst []byte, hashes []uint32) []byte {
	dst, array := f.grow(dst, len(hashes))
	for _, h := range hashes {
		f.set(array, h)
	}
	return dst
}

// grow appends a zeroed filter sized for n keys to dst, probe count in
// place, and returns the extended slice plus the filter's bit array.
func (f Filter) grow(dst []byte, n int) (out, array []byte) {
	bits := n * f.bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	start := len(dst)
	dst = slices.Grow(dst, nBytes+1)[:start+nBytes+1]
	clear(dst[start:])
	dst[start+nBytes] = byte(f.k)
	return dst, dst[start : start+nBytes]
}

// set turns on the probe bits of one key's hash.
func (f Filter) set(array []byte, h uint32) {
	bits := uint32(len(array) * 8)
	delta := h>>17 | h<<15
	for j := 0; j < f.k; j++ {
		pos := h % bits
		array[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// MayContain reports whether key may be in the set encoded in filter.
// False positives are possible; false negatives are not. The probe count
// is read from the filter's trailing byte, so the policy receiver carries
// no state the query needs.
func (f Filter) MayContain(filter, key []byte) bool {
	return MayContain(filter, key)
}

// MayContain reports whether key may be in the set encoded in filter. The
// encoding is self-describing (bit array plus trailing probe count), so
// readers need no policy value — in particular not the bits-per-key the
// filter was built with.
func MayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return false
	}
	nBytes := len(filter) - 1
	bits := uint32(nBytes * 8)
	k := int(filter[nBytes])
	if k > 30 {
		// Reserved for future encodings: treat as a match.
		return true
	}
	h := Hash(key)
	delta := h>>17 | h<<15
	for j := 0; j < k; j++ {
		pos := h % bits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
