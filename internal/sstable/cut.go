package sstable

import "fcae/internal/keys"

// The two decisions that shape a table beyond its entries: where it ends
// and what key each data block is indexed under. Writer (for flush and
// the CPU compaction lane) and the engine's output builder both decide
// with these, which is what makes their files the same bytes.

// SealedSize is what a data block of n payload bytes adds to its table:
// the payload and the trailer sealing it.
func SealedSize(n int) int64 { return int64(n) + BlockTrailerSize }

// TableFull is the table cut (paper §V-A: "when the accumulated size of
// data blocks exceeds the threshold, the SSTable is completed"). sealed is
// the SealedSize of every data block the table holds so far; the open
// block is not counted, so the answer only changes when a block is sealed.
// A full table still ends at a user-key boundary, which is the caller's.
func TableFull(sealed, limit int64) bool { return sealed >= limit }

// IndexKey appends to dst the internal key a data block is indexed under.
// last is the block's final internal key and upcoming the key after it
// (nil at the end of the table): the result is the shortest separator
// below upcoming, or a short successor of last.
//
// The MaxSeq trailer is only safe when the shortened user key is STRICTLY
// greater than the block's last user key; otherwise (user, MaxSeq) would
// sort before the block's own entries and seeks at older snapshot
// sequences would skip the block. The key is last itself in that case,
// exactly as LevelDB's FindShortestSeparator leaves it.
func IndexKey(dst, last, upcoming []byte) []byte {
	user := keys.UserKey(last)
	n := len(dst)
	if upcoming != nil {
		dst = keys.Separator(dst, user, keys.UserKey(upcoming))
	} else {
		dst = keys.Successor(dst, user)
	}
	if keys.CompareUser(dst[n:], user) > 0 {
		return keys.MakeInternal(dst, nil, keys.MaxSeq, keys.KindSet)
	}
	return append(dst, last[len(user):]...) // dst[n:] is user: last verbatim
}
