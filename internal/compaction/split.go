package compaction

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// This file is how one merge uses more than one core: the job's key space
// is cut into parts at user-key boundaries, and the parts are merged at
// the same time, each by a goroutine of its own, with nothing passed
// between them until they are done. Where the cuts fall is decided here
// for both lanes (the engine ends an output table at each cut, the CPU
// lane starts a part there), so their files stay the same bytes.

// maxParts bounds how many parts one merge is cut into.
const maxParts = 4

// partCount is how many parts job's merge is cut into: the largest power
// of two at most min(maxParts, InputBytes / MaxOutputBytes), so 1, 2 or
// 4. It reads the job alone, never the machine, so the cuts and every
// output byte are the same wherever the job runs.
func partCount(job *Job) int {
	if job.MaxOutputBytes == 0 {
		return 1
	}
	n := min(maxParts, job.InputBytes()/int64(job.MaxOutputBytes))
	parts := 1
	for int64(parts)*2 <= n {
		parts *= 2
	}
	return parts
}

// OpenRuns opens every input table of job, run by run. A lane opens each
// table once and gives the readers to CutKeys and to its merge.
func OpenRuns(job *Job) ([][]*sstable.Reader, error) {
	n := 0
	for _, run := range job.Runs {
		n += len(run)
	}
	all := make([]*sstable.Reader, n)
	runs := make([][]*sstable.Reader, len(job.Runs))
	for i, run := range job.Runs {
		runs[i], all = all[:len(run):len(run)], all[len(run):]
		for j, t := range run {
			r, err := sstable.NewReader(t.Data, t.Size, job.TableOpts, nil, t.Num)
			if err != nil {
				return nil, fmt.Errorf("compaction: open table %d: %w", t.Num, err)
			}
			runs[i][j] = r
		}
	}
	return runs, nil
}

// cutKeyGuess presizes the cut scan's key buffer: bytes per index key.
const cutKeyGuess = 24

// cutBlock is one input data block as the cut rule sees it.
type cutBlock struct {
	key  []byte // its index key
	size uint64 // its stored payload bytes
}

// CutKeys returns the user keys job's merge is cut at, strictly ascending:
// part i holds the user keys in [cut i-1, cut i), the first and the last
// part are open below and above. It is nil when the job is merged whole.
// A lane that does not merge part by part must end an output table at
// each cut to write the files the CPU lane writes. runs are job's inputs
// as OpenRuns opened them.
//
// This is the cut rule. Every input data block is listed by its index
// key with its stored size, read from the inputs' index blocks alone, and
// the list is sorted by key. Cut i is the user key of the block at which
// the running sum of sizes first reaches i/parts of the total; a cut not
// above the one before it is left out.
func CutKeys(job *Job, runs [][]*sstable.Reader) ([][]byte, error) {
	parts := partCount(job)
	if parts == 1 {
		return nil, nil
	}
	n := 0
	for _, run := range runs {
		for _, r := range run {
			n += r.NumBlocks()
		}
	}
	blocks := make([]cutBlock, 0, n)
	buf := make([]byte, 0, n*cutKeyGuess)
	var total uint64
	var sc sstable.BlockScanner
	for _, run := range runs {
		for _, r := range run {
			sc.Reset(r)
			for {
				h, ok, err := sc.NextHandle()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				// A key keeps the array it was appended to: growing buf
				// later moves only what follows.
				start := len(buf)
				buf = append(buf, sc.Key()...)
				blocks = append(blocks, cutBlock{key: buf[start:len(buf):len(buf)], size: h.Size})
				total += h.Size
			}
		}
	}
	slices.SortStableFunc(blocks, func(a, b cutBlock) int { return keys.Compare(a.key, b.key) })

	cuts := make([][]byte, 0, parts-1)
	var sum uint64
	i := uint64(1)
	for _, b := range blocks {
		sum += b.size
		for ; i < uint64(parts) && sum*uint64(parts) >= total*i; i++ {
			user := keys.UserKey(b.key)
			if len(cuts) == 0 || keys.CompareUser(user, cuts[len(cuts)-1]) > 0 {
				cuts = append(cuts, user)
			}
		}
	}
	return cuts, nil
}

// RunParts runs the n key-range parts of one merge on the calling
// goroutine and up to GOMAXPROCS-1 helpers, which claim the parts in key
// order from one counter and are joined before RunParts returns. The
// caller claims part 0 before any helper starts. A part the caller claims
// when every part before it has been drained goes to direct; every other
// part (each one a helper claims, and one the caller claims while an
// earlier part is still running) goes to buffered, and once buffered has
// returned the caller drains it, in key order. So direct and drain run on
// the calling goroutine only, parts reach them in key order, part 0 always
// goes to direct, and at GOMAXPROCS 1 every part does. The first error
// from direct or drain stops the claiming and is returned; buffered parts
// not yet drained then never are. Both lanes merge their parts with it.
func RunParts(n int, direct func(k int) error, buffered func(k int), drain func(k int) error) error {
	if n == 1 {
		return direct(0)
	}
	r := &partRun{n: n, done: make([]atomic.Bool, n)}
	k := r.claim()
	for w := min(runtime.GOMAXPROCS(0), n) - 1; w > 0; w-- {
		r.wg.Add(1)
		go r.help(buffered)
	}
	var err error
	drained := 0
	for ; k < n; k = r.claim() {
		for ; drained < k && err == nil && r.done[drained].Load(); drained++ {
			err = drain(drained)
		}
		if err != nil {
			break
		}
		if drained < k {
			buffered(k)
			r.done[k].Store(true)
			continue
		}
		if err = direct(k); err != nil {
			break
		}
		drained++
	}
	r.next.Store(int64(n)) // after a failure, helpers claim nothing more
	r.wg.Wait()
	for ; drained < n && err == nil; drained++ {
		err = drain(drained)
	}
	return err
}

// partRun is what one RunParts call's goroutines share: the counter they
// claim parts by, which buffered parts are done, and the helpers' join.
type partRun struct {
	n    int
	next atomic.Int64
	done []atomic.Bool
	wg   sync.WaitGroup
}

// claim returns the next unclaimed part, n once none is left.
func (r *partRun) claim() int { return int(r.next.Add(1) - 1) }

// help runs parts through buffered until none is left to claim.
func (r *partRun) help(buffered func(k int)) {
	defer r.wg.Done()
	for k := r.claim(); k < r.n; k = r.claim() {
		buffered(k)
		r.done[k].Store(true)
	}
}

// part is one key range [lo, hi) of a merge; a nil bound is open.
type part struct {
	lo, hi []byte

	// Set by whichever goroutine merges the part, final once RunParts
	// drains it. A part merged into memory keeps its tables in buf and
	// numbers its outputs by their place there.
	res Result
	buf *tableBuf
	err error
}

// Compact implements Executor. The job is cut into parts (CutKeys) and
// the parts are merged by RunParts. A part goes straight to env when the
// caller merges it and every part before it is in env already; any other
// part is merged into pooled memory and written through env by the
// caller, in key order. So env sees one goroutine and tables in key
// order, and at GOMAXPROCS 1 nothing is buffered.
func (CPU) Compact(job *Job, env Env) (*Result, error) {
	runs, err := OpenRuns(job)
	if err != nil {
		return nil, err
	}
	cuts, err := CutKeys(job, runs)
	if err != nil {
		return nil, err
	}
	return mergeParts(job, runs, cuts, env)
}

// mergeParts merges the parts cuts make of runs, as Compact describes.
func mergeParts(job *Job, runs [][]*sstable.Reader, cuts [][]byte, env Env) (*Result, error) {
	parts := make([]part, len(cuts)+1)
	for i, c := range cuts {
		parts[i].hi, parts[i+1].lo = c, c
	}
	in := job.InputBytes()
	want := in / int64(len(parts)) // about what a part's output takes, to size its buffer
	tables := 1                    // a part's output tables, about: one short table more than its share of full ones
	if job.MaxOutputBytes > 0 {
		tables += int(want / int64(job.MaxOutputBytes))
	}
	res := &Result{Outputs: make([]OutputTable, 0, tables*len(parts)), Stats: Stats{BytesRead: in, Parts: len(parts)}}
	err := RunParts(len(parts),
		func(k int) error {
			return mergePart(job, runs, parts[k].lo, parts[k].hi, &outputs{job: job, env: env, res: res, trace: job.Trace})
		},
		func(k int) {
			p := &parts[k]
			p.buf = getTableBuf(want)
			p.res.Outputs = make([]OutputTable, 0, tables)
			p.err = mergePart(job, runs, p.lo, p.hi, &outputs{job: job, env: p.buf, res: &p.res})
		},
		func(k int) error { return parts[k].write(job, env, res) })
	for i := range parts {
		parts[i].buf.release()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// write moves a part merged into memory to env, table by table, and
// folds its counts into res.
func (p *part) write(job *Job, env Env, res *Result) error {
	if p.err != nil {
		return p.err
	}
	start := 0
	for i, ot := range p.res.Outputs {
		end := p.buf.ends[i]
		done := job.Trace.StartSpan("flush_table")
		num, f, err := env.NewOutput()
		if err == nil {
			_, err = f.Write(p.buf.b[start:end])
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		done()
		if err != nil {
			return err
		}
		ot.Num = num
		res.Outputs = append(res.Outputs, ot)
		start = end
	}
	res.Stats.BytesWritten += p.res.Stats.BytesWritten
	res.Stats.PairsIn += p.res.Stats.PairsIn
	res.Stats.PairsOut += p.res.Stats.PairsOut
	res.Stats.PairsDropped += p.res.Stats.PairsDropped
	return nil
}

// tableBuf is the Env of a part merged away from env: its tables go one
// after another into one buffer, each output numbered by its place.
type tableBuf struct {
	b    []byte
	ends []int // where each finished table ends in b
}

var tableBufs sync.Pool

// maxPooledTableBuf bounds what tableBufs keeps: one huge merge must not
// leave buffers of its size behind.
const maxPooledTableBuf = 64 << 20

// getTableBuf returns an empty buffer with room for about want bytes.
func getTableBuf(want int64) *tableBuf {
	t, _ := tableBufs.Get().(*tableBuf)
	if t == nil {
		t = &tableBuf{ends: make([]int, 0, 4)}
	}
	t.b = slices.Grow(t.b[:0], int(min(want, maxPooledTableBuf)))
	t.ends = t.ends[:0]
	return t
}

// release returns the buffer to the pool; a nil buffer is ignored.
func (t *tableBuf) release() {
	if t == nil || cap(t.b) > maxPooledTableBuf {
		return
	}
	tableBufs.Put(t)
}

// NewOutput implements Env.
func (t *tableBuf) NewOutput() (uint64, io.WriteCloser, error) {
	return uint64(len(t.ends)), t, nil
}

// Write appends to the open table.
func (t *tableBuf) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	return len(p), nil
}

// Close ends the open table.
func (t *tableBuf) Close() error {
	t.ends = append(t.ends, len(t.b))
	return nil
}
