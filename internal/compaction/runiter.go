package compaction

import (
	"fmt"

	"fcae/internal/sstable"
)

// This file is how both CPU data paths read their input: a run's tables
// are walked block by block through sstable.BlockScanner (cache bypassed,
// CRC checked, decompressed into recycled BlockBufs) and the blocks'
// entries through one BlockIter re-pointed per block. The sequential
// path calls the scanner from the merge goroutine; the pipelined path
// (prefetch.go) calls the same scanner from a read-ahead goroutine and
// hands the blocks over a channel. Nothing here allocates per block or
// per entry.

// openReaders opens every table of a run.
func openReaders(run []Table, opts sstable.Options) ([]*sstable.Reader, error) {
	readers := make([]*sstable.Reader, len(run))
	for i, t := range run {
		r, err := sstable.NewReader(t.Data, t.Size, opts, nil, t.Num)
		if err != nil {
			return nil, fmt.Errorf("compaction: open table %d: %w", t.Num, err)
		}
		readers[i] = r
	}
	return readers, nil
}

// runScanner yields a run's data blocks in order: its tables (disjoint,
// ascending) one after another, each through a BlockScanner.
type runScanner struct {
	readers []*sstable.Reader
	sc      sstable.BlockScanner
	next    int  // the reader sc moves to when the current table ends
	open    bool // sc is inside readers[next-1]
}

// nextBlock reads the run's next data block into buf and returns its
// decoded contents, which alias buf. ok is false at the end of the run.
func (r *runScanner) nextBlock(buf *sstable.BlockBuf) (contents []byte, ok bool, err error) {
	for {
		if !r.open {
			if r.next == len(r.readers) {
				return nil, false, nil
			}
			r.sc.Reset(r.readers[r.next])
			r.next++
			r.open = true
		}
		contents, ok, err = r.sc.Next(buf)
		if ok || err != nil {
			return contents, ok, err
		}
		r.open = false
	}
}

// blockFeed is where a runIter gets its blocks: straight from a scanner
// (scanFeed) or from a read-ahead goroutine's queue (prefetchRun).
type blockFeed interface {
	// nextBlock returns the run's next decoded data block; ok is false at
	// the end of the run. The contents hold until the following call,
	// and there is no following call once ok is false or err is set.
	nextBlock() (contents []byte, ok bool, err error)
}

// scanFeed is the sequential path's feed: one scanner, one block buffer
// recycled for every block of the run.
type scanFeed struct {
	scan runScanner
	buf  sstable.BlockBuf
}

func (f *scanFeed) nextBlock() ([]byte, bool, error) { return f.scan.nextBlock(&f.buf) }

var errRunForwardOnly = fmt.Errorf("compaction: run iterator is forward-only")

// runIter presents one sorted run to the merge as an iter.Iterator that
// only goes forward: SeekToFirst once, then Next. A compaction never asks
// for more, and a forward-only contract is what lets the blocks behind
// the cursor be recycled.
type runIter struct {
	feed   blockFeed
	cur    *sstable.BlockIter
	inited bool
	eof    bool
	err    error
}

func newRunIter(feed blockFeed) *runIter { return &runIter{feed: feed} }

// loadNext positions cur at the start of the run's next block, if any.
func (p *runIter) loadNext() {
	contents, ok, err := p.feed.nextBlock()
	if err == nil && ok {
		if p.cur == nil {
			p.cur, err = sstable.NewBlockIter(contents)
		} else {
			err = p.cur.Reset(contents)
		}
	}
	switch {
	case err != nil:
		p.err = err
	case !ok:
		p.eof = true
	default:
		p.cur.SeekToFirst()
	}
}

// skipEmpty advances across block boundaries (and any empty blocks)
// until an entry is available or the run ends.
func (p *runIter) skipEmpty() {
	for p.err == nil && !p.eof && (p.cur == nil || !p.cur.Valid()) {
		if p.cur != nil && p.cur.Error() != nil {
			p.err = p.cur.Error()
			return
		}
		p.loadNext()
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
	p.skipEmpty()
}

// Next implements iter.Iterator.
func (p *runIter) Next() {
	if p.err != nil || p.eof || p.cur == nil {
		return
	}
	p.cur.Next()
	p.skipEmpty()
}

// Valid implements iter.Iterator.
func (p *runIter) Valid() bool {
	return p.err == nil && !p.eof && p.cur != nil && p.cur.Valid()
}

// Key implements iter.Iterator.
func (p *runIter) Key() []byte { return p.cur.Key() }

// Value implements iter.Iterator.
func (p *runIter) Value() []byte { return p.cur.Value() }

// Error implements iter.Iterator.
func (p *runIter) Error() error {
	if p.err != nil {
		return p.err
	}
	if p.cur != nil {
		return p.cur.Error()
	}
	return nil
}

// SeekGE implements iter.Iterator; unsupported — the compaction merge
// only ever scans forward from the start.
func (p *runIter) SeekGE([]byte) { p.err = errRunForwardOnly }

// SeekToLast implements iter.Iterator; unsupported.
func (p *runIter) SeekToLast() { p.err = errRunForwardOnly }

// Prev implements iter.Iterator; unsupported.
func (p *runIter) Prev() { p.err = errRunForwardOnly }
