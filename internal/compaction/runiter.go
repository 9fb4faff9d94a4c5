package compaction

import (
	"fmt"
	"sync"

	"fcae/internal/iter"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// This file is how the CPU data path reads its input: a run's tables are
// walked block by block through sstable.BlockScanner (cache bypassed, read
// a window at a time, CRC checked, decoded into one recycled buffer) and
// the blocks' entries through one BlockIter re-pointed per block. Nothing
// here allocates per block or per entry; the run's one scanner carries its
// window from table to table, and a merge's scanners go back to a pool
// for the next part.

var errRunForwardOnly = fmt.Errorf("compaction: run iterator is forward-only")

// runIter presents the entries of one sorted run — its tables, disjoint
// and ascending, one after another — whose user keys lie in a part's
// [lo, hi) to the merge as an iter.Iterator that only goes forward:
// SeekToFirst once, then Next. A compaction never asks for more, and a
// forward-only contract is what lets the one block buffer behind the
// cursor be recycled. It starts at the block the index names for lo and
// stops at the first key at or past hi, so it decodes the part's blocks
// and at most one straddling block at each end.
type runIter struct {
	readers []*sstable.Reader
	next    int    // the reader sc moves to when the current table ends
	hi      []byte // the part's exclusive upper bound; nil is open
	seek    []byte // the part's least internal key, (lo, MaxSeq); nil when lo is open
	sc      sstable.BlockScanner
	scratch []byte // what a compressed block decodes into
	cur     sstable.BlockIter

	inited  bool
	seeking bool // no entry in range yet: Seek each table, SeekGE each block
	bounded bool // cur's block may hold keys at or past hi
	open    bool // sc is inside readers[next-1]
	live    bool // cur is inside a block
	err     error
}

// reset points p before the run's entries from seek on and below hi; a
// nil bound is open. The scanner's window and the decode buffers are
// kept, and the decode buffer starts with room for two blocks of
// blockSize, so it is not grown block by block.
func (p *runIter) reset(readers []*sstable.Reader, seek, hi []byte, blockSize int) {
	p.readers, p.next, p.seek, p.hi = readers, 0, seek, hi
	p.inited, p.seeking, p.bounded = false, seek != nil, false
	p.open, p.live, p.err = false, false, nil
	if cap(p.scratch) < blockSize {
		p.scratch = make([]byte, 0, 2*blockSize)
	}
}

// advance steps to the run's next entry in range, crossing block and
// table boundaries (and any empty blocks) until one is available or the
// run ends.
func (p *runIter) advance() {
	for p.err == nil {
		if p.live {
			p.cur.Next()
			if p.enter() {
				return
			}
			continue
		}
		if p.open {
			b, ok, err := p.sc.NextRaw()
			switch {
			case err != nil:
				p.err = err
			case ok:
				p.bounded = p.hi != nil && keys.CompareUser(keys.UserKey(b.IndexKey), p.hi) >= 0
				p.err = p.load(b)
				if p.err == nil && p.enter() {
					return
				}
			default:
				p.open = false
			}
			continue
		}
		if p.next == len(p.readers) {
			return
		}
		if p.seeking {
			p.sc.Seek(p.readers[p.next], p.seek)
		} else {
			p.sc.Reset(p.readers[p.next])
		}
		p.next++
		p.open = true
	}
}

// load decodes block b into cur and steps onto its first entry in range.
func (p *runIter) load(b sstable.RawBlock) error {
	contents, err := sstable.DecodeBlock(&p.scratch, b.CType, b.Payload)
	if err != nil {
		return err
	}
	if err := p.cur.Reset(contents); err != nil {
		return err
	}
	if p.seeking {
		p.cur.SeekGE(p.seek)
	} else {
		p.cur.Next()
	}
	return nil
}

// enter reports whether cur stands on an entry in range. Past the block's
// end it leaves the block; at a key at or past hi it ends the run.
func (p *runIter) enter() bool {
	p.live = p.cur.Valid()
	if !p.live {
		p.err = p.cur.Error()
		return false
	}
	if p.bounded && keys.CompareUser(keys.UserKey(p.cur.Key()), p.hi) >= 0 {
		p.live, p.open, p.next = false, false, len(p.readers)
		return false
	}
	p.seeking = false
	return true
}

// SeekToFirst implements iter.Iterator; valid exactly once, before any
// other positioning call.
func (p *runIter) SeekToFirst() {
	if p.inited {
		p.err = errRunForwardOnly
		return
	}
	p.inited = true
	p.advance()
}

// Next implements iter.Iterator.
func (p *runIter) Next() {
	if p.live {
		p.advance()
	}
}

// Valid implements iter.Iterator.
func (p *runIter) Valid() bool { return p.live && p.err == nil }

// Key implements iter.Iterator.
func (p *runIter) Key() []byte { return p.cur.Key() }

// Value implements iter.Iterator.
func (p *runIter) Value() []byte { return p.cur.Value() }

// Error implements iter.Iterator.
func (p *runIter) Error() error { return p.err }

// SeekGE implements iter.Iterator; unsupported — the compaction merge
// only ever scans forward from the start.
func (p *runIter) SeekGE([]byte) { p.err = errRunForwardOnly }

// SeekToLast implements iter.Iterator; unsupported.
func (p *runIter) SeekToLast() { p.err = errRunForwardOnly }

// Prev implements iter.Iterator; unsupported.
func (p *runIter) Prev() { p.err = errRunForwardOnly }

// partMerge is one part's merge machinery: a cursor per run, the heap
// over them and the Validity Check's key scratch. It is pooled, so the
// runs' read windows (256 KiB each) and decode buffers serve part after
// part.
type partMerge struct {
	runs   []runIter
	its    []iter.Iterator
	merged iter.Merging
	seek   []byte // the runs' shared seek key
	drop   DropPolicy
}

var partMerges = sync.Pool{New: func() any { return new(partMerge) }}

// getPartMerge returns a merge over the entries of runs in [lo, hi).
func getPartMerge(runs [][]*sstable.Reader, lo, hi []byte, blockSize int) *partMerge {
	m := partMerges.Get().(*partMerge)
	if cap(m.runs) < len(runs) {
		m.runs = make([]runIter, len(runs))
		m.its = make([]iter.Iterator, len(runs))
	}
	m.runs, m.its = m.runs[:len(runs)], m.its[:len(runs)]
	var seek []byte
	if lo != nil {
		m.seek = keys.MakeInternal(m.seek[:0], lo, keys.MaxSeq, keys.KindSet)
		seek = m.seek
	}
	for i, readers := range runs {
		m.runs[i].reset(readers, seek, hi, blockSize)
		m.its[i] = &m.runs[i]
	}
	m.merged.Reset(m.its)
	return m
}

// release returns m to the pool without the job's readers.
func (m *partMerge) release() {
	for i := range m.runs {
		m.runs[i].readers, m.runs[i].seek, m.runs[i].hi = nil, nil, nil
	}
	partMerges.Put(m)
}
