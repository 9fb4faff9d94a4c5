package sstable

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fcae/internal/keys"
)

// blockBuilder assembles one block of prefix-compressed entries:
//
//	shared   uvarint // bytes shared with the previous key
//	unshared uvarint
//	vlen     uvarint
//	key suffix, value
//
// followed by the uint32 restart offsets and their count. Keys are fully
// stored at every restart point so iterators can binary-search restarts.
type blockBuilder struct {
	restartInterval int
	buf             []byte
	restarts        []uint32
	counter         int
	lastKey         []byte
	entries         int
}

func newBlockBuilder(restartInterval int) *blockBuilder {
	b := &blockBuilder{restartInterval: restartInterval}
	b.reset()
	return b
}

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = append(b.restarts[:0], 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

func (b *blockBuilder) empty() bool { return len(b.buf) == 0 }

// estimatedSize returns the finished-block size if finish were called now.
func (b *blockBuilder) estimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// add appends an entry; keys must arrive in strictly increasing order.
func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	var tmp [binary.MaxVarintLen32]byte
	b.buf = append(b.buf, tmp[:binary.PutUvarint(tmp[:], uint64(shared))]...)
	b.buf = append(b.buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(key)-shared))]...)
	b.buf = append(b.buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(value)))]...)
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// finish appends the restart array and returns the complete block contents.
func (b *blockBuilder) finish() []byte {
	var tmp [4]byte
	for _, r := range b.restarts {
		binary.LittleEndian.PutUint32(tmp[:], r)
		b.buf = append(b.buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.restarts)))
	return append(b.buf, tmp[:]...)
}

// block wraps decoded block contents for iteration.
type block struct {
	data       []byte
	restarts   []uint32
	restartOff int
	cmp        func(a, b []byte) int
}

func newBlock(contents []byte, cmp func(a, b []byte) int) (*block, error) {
	b := &block{cmp: cmp}
	if err := b.reset(contents); err != nil {
		return nil, err
	}
	return b, nil
}

// reset re-points the block at new contents, reusing the restart array's
// capacity so a block parsed per data block in the engine's decode loop
// amortizes to zero steady-state allocation.
func (b *block) reset(contents []byte) error {
	if len(contents) < 4 {
		return fmt.Errorf("%w: block too small", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(contents[len(contents)-4:]))
	restartOff := len(contents) - 4 - 4*n
	if n < 1 || restartOff < 0 {
		return fmt.Errorf("%w: bad restart count %d", ErrCorrupt, n)
	}
	// n is held to the contents above, so the array is sized once, not
	// doubled entry by entry: an index block has one restart per entry.
	if cap(b.restarts) < n {
		//fcae:alloc-ok grow-on-demand restart array: a reused block re-slices it, so steady state allocates nothing
		b.restarts = make([]uint32, 0, max(n, 2*cap(b.restarts)))
	}
	b.restarts = b.restarts[:0]
	for i := 0; i < n; i++ {
		b.restarts = append(b.restarts, binary.LittleEndian.Uint32(contents[restartOff+4*i:]))
	}
	b.data = contents[:restartOff]
	b.restartOff = restartOff
	return nil
}

// BlockIter iterates over one decoded block's entries. It is exported for
// the block-at-a-time readers — the table iterator, the compaction
// scanner's consumers and the engine's Data Block Decoder — which hold one
// per cursor or input lane and Reset it onto each block in turn.
type BlockIter struct {
	b     *block // &own after Reset; a block parsed elsewhere after share
	own   block
	off   int // offset of the NEXT entry to decode
	key   []byte
	val   []byte
	valid bool
	err   error
}

func (b *block) iter() *BlockIter { return &BlockIter{b: b} }

// NewBlockIter parses contents (already decoded) as a data block and
// returns an iterator positioned before the first entry.
func NewBlockIter(contents []byte) (*BlockIter, error) {
	it := new(BlockIter)
	if err := it.Reset(contents); err != nil {
		return nil, err
	}
	return it, nil
}

// Reset re-points the iterator at new data-block contents, reusing the
// parse state (restart array, key scratch) so a decode loop does no
// per-block allocation. The zero BlockIter may be Reset. The iterator is
// left before the first entry: SeekToFirst or Next moves onto it.
func (it *BlockIter) Reset(contents []byte) error {
	it.own.cmp = keys.Compare
	it.b = &it.own
	if err := it.own.reset(contents); err != nil {
		return err
	}
	it.rewind()
	return nil
}

// share points the iterator at a block somebody else parsed and keeps —
// a table's index block, read by every cursor on the table and written by
// none — and leaves it before the first entry.
func (it *BlockIter) share(b *block) {
	it.b = b
	it.rewind()
}

// drop lets go of the block and of the value view into it; the key
// scratch and the restart array keep their capacity.
func (it *BlockIter) drop() {
	it.b = nil
	it.own.data = nil
	it.rewind()
}

// rewind puts the iterator before the block's first entry.
func (it *BlockIter) rewind() {
	it.off = 0
	it.key = it.key[:0]
	it.val = nil
	it.valid = false
	it.err = nil
}

func (it *BlockIter) Valid() bool   { return it.valid && it.err == nil }
func (it *BlockIter) Key() []byte   { return it.key }
func (it *BlockIter) Value() []byte { return it.val }
func (it *BlockIter) Error() error  { return it.err }

// parseNext decodes the entry at it.off, updating key/val.
func (it *BlockIter) parseNext() bool {
	if it.off >= len(it.b.data) {
		it.valid = false
		return false
	}
	data := it.b.data[it.off:]
	// Check each varint before slicing past it: Uvarint returns a NEGATIVE
	// count on 64-bit overflow, which would poison the next slice index.
	shared, n0 := binary.Uvarint(data)
	if n0 <= 0 {
		it.corrupt("bad entry header")
		return false
	}
	unshared, n1 := binary.Uvarint(data[n0:])
	if n1 <= 0 {
		it.corrupt("bad entry header")
		return false
	}
	vlen, n2 := binary.Uvarint(data[n0+n1:])
	if n2 <= 0 {
		it.corrupt("bad entry header")
		return false
	}
	hdr := n0 + n1 + n2
	// Compare in uint64 space before converting: a hostile uvarint can
	// exceed MaxInt, and int(x) would flip negative and slip past the
	// bounds checks below.
	if shared > uint64(len(it.key)) || unshared > uint64(len(data)) || vlen > uint64(len(data)) {
		it.corrupt("entry overruns block")
		return false
	}
	if hdr+int(unshared)+int(vlen) > len(data) {
		it.corrupt("entry overruns block")
		return false
	}
	it.key = append(it.key[:shared], data[hdr:hdr+int(unshared)]...)
	it.val = data[hdr+int(unshared) : hdr+int(unshared)+int(vlen)]
	it.off += hdr + int(unshared) + int(vlen)
	it.valid = true
	return true
}

func (it *BlockIter) corrupt(msg string) {
	//fcae:alloc-ok corruption path: fires at most once, then iteration is dead
	it.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	it.valid = false
}

// SeekToFirst positions at the first entry.
func (it *BlockIter) SeekToFirst() {
	it.off = 0
	it.key = it.key[:0]
	it.parseNext()
}

// Next advances to the following entry.
func (it *BlockIter) Next() {
	if it.err != nil {
		return
	}
	it.parseNext()
}

// SeekGE positions at the first entry with key >= target, binary-searching
// the restart array and then scanning.
func (it *BlockIter) SeekGE(target []byte) {
	if it.err != nil {
		return
	}
	// Find the last restart whose key < target: binary-search the first
	// whose key is >= target (or unreadable), then step back one.
	i, j := 0, len(it.b.restarts)
	for i < j {
		m := int(uint(i+j) >> 1)
		if k, ok := it.b.keyAtRestart(m); !ok || it.b.cmp(k, target) >= 0 {
			j = m
		} else {
			i = m + 1
		}
	}
	if i > 0 {
		i--
	}
	it.off = int(it.b.restarts[i])
	it.key = it.key[:0]
	for it.parseNext() {
		if it.b.cmp(it.key, target) >= 0 {
			return
		}
	}
}

// SeekToLast positions at the final entry.
func (it *BlockIter) SeekToLast() {
	it.off = int(it.b.restarts[len(it.b.restarts)-1])
	it.key = it.key[:0]
	for it.parseNext() {
		if it.off >= len(it.b.data) {
			return
		}
	}
}

// Prev steps backwards by rescanning from the nearest earlier restart.
func (it *BlockIter) Prev() {
	if it.err != nil || !it.valid {
		return
	}
	// Offset where the current entry started is unknown; rescan from the
	// restart before the current position and stop one entry short.
	cur := append([]byte(nil), it.key...)
	i := sort.Search(len(it.b.restarts), func(i int) bool {
		k, ok := it.b.keyAtRestart(i)
		if !ok {
			return true
		}
		return it.b.cmp(k, cur) >= 0
	})
	if i == 0 {
		it.valid = false
		return
	}
	it.off = int(it.b.restarts[i-1])
	it.key = it.key[:0]
	var prevKey, prevVal []byte
	found := false
	for it.parseNext() {
		if it.b.cmp(it.key, cur) >= 0 {
			break
		}
		prevKey = append(prevKey[:0], it.key...)
		prevVal = it.val
		found = true
	}
	if !found {
		it.valid = false
		return
	}
	it.key = append(it.key[:0], prevKey...)
	it.val = prevVal
	it.valid = true
}

// keyAtRestart decodes the full key stored at restart index i.
func (b *block) keyAtRestart(i int) ([]byte, bool) {
	off := int(b.restarts[i])
	if off >= len(b.data) {
		return nil, false
	}
	data := b.data[off:]
	shared, n0 := binary.Uvarint(data)
	if n0 <= 0 {
		return nil, false
	}
	unshared, n1 := binary.Uvarint(data[n0:])
	if n1 <= 0 {
		return nil, false
	}
	_, n2 := binary.Uvarint(data[n0+n1:])
	if n2 <= 0 || shared != 0 || unshared > uint64(len(data)) {
		return nil, false
	}
	hdr := n0 + n1 + n2
	if hdr+int(unshared) > len(data) {
		return nil, false
	}
	return data[hdr : hdr+int(unshared)], true
}
