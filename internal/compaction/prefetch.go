package compaction

import (
	"sync"
	"time"

	"fcae/internal/sstable"
)

// prefetchRun is the pipeline's input read-ahead stage for one sorted
// run: a producer goroutine walks the run with the same runScanner the
// sequential path uses, reading and decompressing up to `window` data
// blocks ahead of the merge cursor into pooled buffers, and the consumer
// side is the blockFeed of the run's runIter. Where the sequential path
// reads a block when the merge reaches it, here the read has already
// happened — the software analogue of the paper's KV transfer + decoder
// stages running ahead of the merger.
type prefetchRun struct {
	scan runScanner

	blocks chan prefetchItem
	free   chan *sstable.BlockBuf
	stop   chan struct{}

	wg        sync.WaitGroup
	closeOnce sync.Once

	// Consumer state (merge goroutine only).
	curBuf *sstable.BlockBuf

	stalls     int64
	stallNanos int64
}

// prefetchItem is one hand-off from producer to consumer: a decoded
// block, an error, or the end-of-run sentinel. The sentinel replaces
// closing the blocks channel so that shutdown ownership stays with Close.
type prefetchItem struct {
	buf      *sstable.BlockBuf
	contents []byte
	err      error
	eof      bool
}

// newPrefetchRun opens the run's tables and starts the read-ahead
// producer with the given block window. The caller must Close it.
func newPrefetchRun(run []Table, opts sstable.Options, window int) (*prefetchRun, error) {
	if window < 1 {
		window = 1
	}
	readers, err := openReaders(run, opts)
	if err != nil {
		return nil, err
	}
	nbufs := window + 2 // window in flight + one at the producer + one held by the consumer
	p := &prefetchRun{
		scan:   runScanner{readers: readers},
		blocks: make(chan prefetchItem, window),
		free:   make(chan *sstable.BlockBuf, nbufs),
		stop:   make(chan struct{}),
	}
	for i := 0; i < nbufs; i++ {
		select {
		case p.free <- &sstable.BlockBuf{}:
		default:
			// Unreachable: free was just made with capacity nbufs. The
			// select keeps the seeding send shutdown-safe by construction.
		}
	}
	p.wg.Add(1)
	go p.fill()
	return p, nil
}

// fill is the producer: scan the run in order, pushing decoded blocks
// until the run is exhausted, an error occurs, or Close fires.
//
//fcae:cycle-accounting
func (p *prefetchRun) fill() {
	defer p.wg.Done()
	for {
		var buf *sstable.BlockBuf
		select {
		case buf = <-p.free:
		case <-p.stop:
			return
		}
		contents, ok, err := p.scan.nextBlock(buf)
		item := prefetchItem{buf: buf, contents: contents, err: err, eof: err == nil && !ok}
		select {
		case p.blocks <- item:
		case <-p.stop:
			return
		}
		if item.err != nil || item.eof {
			return
		}
	}
}

// Close stops the producer and joins it. Idempotent; safe at any point.
//
// newPrefetchRun makes stop, but tearing the producer down is Close's
// one job, declared for chanflow's owner rule.
//
//fcae:chan-owner compaction.prefetchRun.stop
func (p *prefetchRun) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
	})
}

// nextItem receives the next prefetched block, counting the receives the
// producer couldn't stay ahead of.
func (p *prefetchRun) nextItem() prefetchItem {
	select {
	case it := <-p.blocks:
		return it
	default:
	}
	p.stalls++
	start := time.Now()
	it := <-p.blocks
	p.stallNanos += time.Since(start).Nanoseconds()
	return it
}

// nextBlock implements blockFeed: recycle the block the merge has just
// finished with, then take the next one off the queue.
func (p *prefetchRun) nextBlock() ([]byte, bool, error) {
	if p.curBuf != nil {
		select {
		case p.free <- p.curBuf:
		case <-p.stop:
		}
		p.curBuf = nil
	}
	it := p.nextItem()
	if it.err != nil || it.eof {
		return nil, false, it.err
	}
	p.curBuf = it.buf
	return it.contents, true, nil
}
