// Package keys implements the internal key encoding used throughout the
// store. An internal key is the user key followed by an 8-byte trailer that
// packs a 56-bit sequence number and an 8-bit value kind, mirroring the
// LevelDB format the paper's engine operates on (the trailer is the "mark
// fields" of paper §V-A; the engine treats user key + trailer as one unit).
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind discriminates live values from tombstones inside the trailer.
type Kind uint8

const (
	// KindDelete marks a tombstone. It sorts after KindSet at equal
	// (userkey, seq) but that pair never occurs in practice.
	KindDelete Kind = 0
	// KindSet marks a live value.
	KindSet Kind = 1
)

// MaxSeq is the largest representable sequence number (56 bits).
const MaxSeq = uint64(1)<<56 - 1

// TrailerSize is the byte length of the seq+kind trailer.
const TrailerSize = 8

func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "DEL"
	case KindSet:
		return "SET"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MakeInternal appends the trailer for (seq, kind) to user and returns the
// internal key. dst may be nil; the user key is copied.
func MakeInternal(dst, user []byte, seq uint64, kind Kind) []byte {
	dst = append(dst, user...)
	var tr [TrailerSize]byte
	binary.LittleEndian.PutUint64(tr[:], seq<<8|uint64(kind))
	return append(dst, tr[:]...)
}

// UserKey returns the user-key prefix of an internal key. It panics if ikey
// is shorter than the trailer.
func UserKey(ikey []byte) []byte {
	return ikey[:len(ikey)-TrailerSize]
}

// DecodeTrailer splits an internal key's trailer into sequence and kind.
func DecodeTrailer(ikey []byte) (seq uint64, kind Kind) {
	x := binary.LittleEndian.Uint64(ikey[len(ikey)-TrailerSize:])
	return x >> 8, Kind(x & 0xff)
}

// Valid reports whether ikey is long enough to hold a trailer.
func Valid(ikey []byte) bool { return len(ikey) >= TrailerSize }

// Compare orders internal keys: ascending user key, then descending
// sequence number, then descending kind, so that the newest entry for a
// user key sorts first.
func Compare(a, b []byte) int {
	if c := bytes.Compare(UserKey(a), UserKey(b)); c != 0 {
		return c
	}
	ta := binary.LittleEndian.Uint64(a[len(a)-TrailerSize:])
	tb := binary.LittleEndian.Uint64(b[len(b)-TrailerSize:])
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	}
	return 0
}

// CompareUser orders plain user keys bytewise.
func CompareUser(a, b []byte) int { return bytes.Compare(a, b) }

// Separator appends to dst a key k with a <= k < b in user-key order that
// is as short as possible, used for index block separators. a and b are
// user keys; k is a itself unless a strictly greater, shorter key exists.
func Separator(dst, a, b []byte) []byte {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	// When one is a prefix of the other, a itself is the shortest choice.
	if i < n && a[i] < 0xff && a[i]+1 < b[i] {
		dst = append(dst, a[:i+1]...)
		dst[len(dst)-1]++
		return dst
	}
	return append(dst, a...)
}

// Successor appends to dst a short key >= a in user-key order, used as the
// final index entry of a table.
func Successor(dst, a []byte) []byte {
	for i := 0; i < len(a); i++ {
		if a[i] != 0xff {
			dst = append(dst, a[:i+1]...)
			dst[len(dst)-1]++
			return dst
		}
	}
	return append(dst, a...)
}

// Range is an inclusive-exclusive span of user keys. An empty Limit means
// unbounded above.
type Range struct {
	Start []byte // inclusive
	Limit []byte // exclusive; nil = +inf
}

// Contains reports whether the range contains user key k.
func (r Range) Contains(k []byte) bool {
	if bytes.Compare(k, r.Start) < 0 {
		return false
	}
	return r.Limit == nil || bytes.Compare(k, r.Limit) < 0
}

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool {
	if r.Limit != nil && bytes.Compare(o.Start, r.Limit) >= 0 {
		return false
	}
	if o.Limit != nil && bytes.Compare(r.Start, o.Limit) >= 0 {
		return false
	}
	return true
}

// ParsedKey is a decoded internal key, convenient for tests and debugging.
type ParsedKey struct {
	User []byte
	Seq  uint64
	Kind Kind
}

// Parse decodes ikey. ok is false when the key is too short.
func Parse(ikey []byte) (p ParsedKey, ok bool) {
	if !Valid(ikey) {
		return p, false
	}
	p.User = UserKey(ikey)
	p.Seq, p.Kind = DecodeTrailer(ikey)
	if p.Kind != KindDelete && p.Kind != KindSet {
		return p, false
	}
	return p, true
}

func (p ParsedKey) String() string {
	return fmt.Sprintf("%q@%d:%v", p.User, p.Seq, p.Kind)
}
