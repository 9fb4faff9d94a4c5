package core

import (
	"encoding/binary"
	"fmt"
)

// Byte-level MetaIn / MetaOut serialization (paper Fig 8). The host writes
// one MetaIn block per input before starting the engine — "it stores the
// number of SSTables and the offset of index block and first data block in
// their corresponding memory region" — and reads MetaOut back afterwards:
// "the smallest and the largest key of each SSTable are maintained ... In
// addition, the number of output SSTables and the size of each are
// needed." The executor round-trips both across the simulated DMA
// boundary so the layouts are genuinely exercised.

// The wire widths of both meta blocks (paper Fig 8), spelled as field sums.
// The codecs write field by field, so a wrong width fails TestMetaInRoundTrip /
// TestMetaOutRoundTrip; devmem keeps the bare numbers out of the Meta functions.
const (
	metaInHeaderLen      = 4         // u32 numSSTables
	metaInEntryLen       = 8 + 8 + 4 // u64 indexOff + u64 indexLen + u32 numBlocks
	metaOutHeaderLen     = 4         // u32 numSSTables
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

// EncodeMetaOut serializes the engine's output summary:
//
//	u32 numSSTables
//	per table: u32 entries, u64 dataBytes, smallest key, largest key
//	(keys length-prefixed with u32)
func EncodeMetaOut(outputs []*OutputTableImage, wOut int) []byte {
	var buf []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(outputs)))
	buf = append(buf, tmp[:4]...)
	appendBytes := func(b []byte) {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(b)))
		buf = append(buf, tmp[:4]...)
		buf = append(buf, b...)
	}
	for _, o := range outputs {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(o.Entries))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(o.DataBytes(wOut)))
		buf = append(buf, tmp[:]...)
		appendBytes(o.Smallest)
		appendBytes(o.Largest)
	}
	return buf
}

// MetaOutEntry is one output table's host-visible summary.
type MetaOutEntry struct {
	Entries   int
	DataBytes int64
	Smallest  []byte
	Largest   []byte
}

// DecodeMetaOut parses a MetaOut block.
func DecodeMetaOut(buf []byte) ([]MetaOutEntry, error) {
	if len(buf) < metaOutHeaderLen {
		return nil, fmt.Errorf("%w: MetaOut too short", ErrLayout)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[metaOutHeaderLen:]
	// Every entry needs at least its fixed fields plus two key-length
	// prefixes, so a count the payload cannot hold is hostile — reject it
	// before sizing the allocation with it.
	if n > len(buf)/(metaOutEntryFixedLen+8) {
		return nil, fmt.Errorf("%w: MetaOut count %d exceeds payload", ErrLayout, n)
	}
	readBytes := func() ([]byte, error) {
		if len(buf) < 4 {
			return nil, fmt.Errorf("%w: MetaOut truncated", ErrLayout)
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return nil, fmt.Errorf("%w: MetaOut key truncated", ErrLayout)
		}
		b := append([]byte(nil), buf[:l]...)
		buf = buf[l:]
		return b, nil
	}
	out := make([]MetaOutEntry, n)
	for i := range out {
		if len(buf) < metaOutEntryFixedLen {
			return nil, fmt.Errorf("%w: MetaOut entry truncated", ErrLayout)
		}
		out[i].Entries = int(binary.LittleEndian.Uint32(buf))
		out[i].DataBytes = int64(binary.LittleEndian.Uint64(buf[4:]))
		buf = buf[metaOutEntryFixedLen:]
		var err error
		if out[i].Smallest, err = readBytes(); err != nil {
			return nil, err
		}
		if out[i].Largest, err = readBytes(); err != nil {
			return nil, err
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing MetaOut bytes", ErrLayout, len(buf))
	}
	return out, nil
}
