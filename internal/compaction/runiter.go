package compaction

import (
	"fmt"

	"fcae/internal/sstable"
)

// This file is how the CPU data path reads its input: a run's tables are
// walked block by block through sstable.BlockScanner (cache bypassed, read
// a window at a time, CRC checked, decoded into one recycled BlockBuf) and
// the blocks' entries through one BlockIter re-pointed per block. Nothing
// here allocates per block or per entry; the run's one scanner carries its
// window from table to table.

var errRunForwardOnly = fmt.Errorf("compaction: run iterator is forward-only")

// runIter presents one sorted run — its tables, disjoint and ascending,
// one after another — to the merge as an iter.Iterator that only goes
// forward: SeekToFirst once, then Next. A compaction never asks for more,
// and a forward-only contract is what lets the one block buffer behind
// the cursor be recycled.
type runIter struct {
	readers []*sstable.Reader
	next    int // the reader sc moves to when the current table ends
	sc      sstable.BlockScanner
	buf     sstable.BlockBuf
	cur     sstable.BlockIter

	inited bool
	open   bool // sc is inside readers[next-1]
	live   bool // cur is inside a block
	err    error
}

// newRunIter opens every table of a run.
func newRunIter(run []Table, opts sstable.Options) (*runIter, error) {
	p := &runIter{readers: make([]*sstable.Reader, len(run))}
	for i, t := range run {
		r, err := sstable.NewReader(t.Data, t.Size, opts, nil, t.Num)
		if err != nil {
			return nil, fmt.Errorf("compaction: open table %d: %w", t.Num, err)
		}
		p.readers[i] = r
	}
	return p, nil
}

// advance steps to the run's next entry, crossing block and table
// boundaries (and any empty blocks) until one is available or the run
// ends.
func (p *runIter) advance() {
	for p.err == nil {
		if p.live {
			p.cur.Next()
			if p.cur.Valid() {
				return
			}
			p.live = false
			p.err = p.cur.Error()
			continue
		}
		if p.open {
			contents, ok, err := p.sc.Next(&p.buf)
			switch {
			case err != nil:
				p.err = err
			case ok:
				p.err = p.cur.Reset(contents)
				p.live = p.err == nil
			default:
				p.open = false
			}
			continue
		}
		if p.next == len(p.readers) {
			return
		}
		p.sc.Reset(p.readers[p.next])
		p.next++
		p.open = true
	}
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
