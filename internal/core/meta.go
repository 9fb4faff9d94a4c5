package core

import (
	"encoding/binary"
	"fmt"
)

// Byte-level MetaIn serialization (paper Fig 8). The host writes one
// MetaIn block per input before starting the engine — "it stores the
// number of SSTables and the offset of index block and first data block in
// their corresponding memory region" — and the executor round-trips it
// across the simulated DMA boundary so the layout is genuinely exercised.
// The paper's MetaOut — "the smallest and the largest key of each SSTable
// ... the number of output SSTables and the size of each" — describes
// tables the engine has ended; here a table's end is decided at assembly
// (compaction.Tables), so no MetaOut block is built, and the transfer
// model charges a MetaOut entry per assembled table.

// The wire widths of the meta blocks (paper Fig 8), spelled as field sums.
// The MetaIn codec writes field by field, so a wrong width fails
// TestMetaInRoundTrip; devmem keeps the bare numbers out of the Meta
// functions.
const (
	metaInHeaderLen      = 4         // u32 numSSTables
	metaInEntryLen       = 8 + 8 + 4 // u64 indexOff + u64 indexLen + u32 numBlocks
	metaOutEntryFixedLen = 4 + 8     // u32 entries + u64 dataBytes (keys are length-prefixed)
)

// EncodeMetaIn serializes an input image's meta block:
//
//	u32 numSSTables
//	per table: u64 indexOff, u64 indexLen, u32 numBlocks
func EncodeMetaIn(img *InputImage) []byte {
	buf := make([]byte, 0, metaInHeaderLen+metaInEntryLen*len(img.Tables))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(img.Tables)))
	buf = append(buf, tmp[:4]...)
	for _, t := range img.Tables {
		binary.LittleEndian.PutUint64(tmp[:], t.IndexOff)
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], t.IndexLen)
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(t.NumBlocks))
		buf = append(buf, tmp[:4]...)
	}
	return buf
}

// DecodeMetaIn parses a MetaIn block into table descriptors.
func DecodeMetaIn(buf []byte) ([]TableDesc, error) {
	if len(buf) < metaInHeaderLen {
		return nil, fmt.Errorf("%w: MetaIn too short", ErrLayout)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[metaInHeaderLen:]
	if len(buf) != metaInEntryLen*n {
		return nil, fmt.Errorf("%w: MetaIn is %d bytes for %d tables", ErrLayout, len(buf), n)
	}
	out := make([]TableDesc, n)
	for i := range out {
		out[i].IndexOff = binary.LittleEndian.Uint64(buf)
		out[i].IndexLen = binary.LittleEndian.Uint64(buf[8:])
		out[i].NumBlocks = int(binary.LittleEndian.Uint32(buf[16:]))
		buf = buf[metaInEntryLen:]
	}
	return out, nil
}
