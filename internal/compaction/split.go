package compaction

import (
	"fmt"
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
// for both lanes, and a cut ends an output block, never a table
// (tables.go), so their files stay the same bytes.

// maxParts bounds how many parts one merge is cut into, and partBytes
// how much input a part takes at most before the merge is cut finer.
const (
	maxParts  = 16
	partBytes = 512 << 10
)

// PartCount is how many parts job's merge is cut into: the largest power
// of two at most maxParts and at most InputBytes over the smaller of
// partBytes and MaxOutputBytes. At the store's 2 MiB tables that is a part
// per 512 KiB of input, several per core, so a faster core claims more of
// them (RunParts). It reads the job alone, never the machine, so the cuts
// and every output byte are the same wherever the job runs.
func PartCount(job *Job) int {
	if job.MaxOutputBytes == 0 {
		return 1
	}
	n := min(maxParts, job.InputBytes()/int64(min(job.MaxOutputBytes, partBytes)))
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

// CutBlocks lists input data blocks as the cut rule reads them: each by
// its index key and stored payload size, as the inputs' index blocks give
// them.
type CutBlocks struct {
	blocks []cutBlock
	keys   []byte
}

// Grow makes room for n more blocks.
func (c *CutBlocks) Grow(n int) {
	c.blocks = slices.Grow(c.blocks, n)
	c.keys = slices.Grow(c.keys, n*cutKeyGuess)
}

// Add lists one block; key is copied.
func (c *CutBlocks) Add(key []byte, size uint64) {
	// A key keeps the array it was appended to: growing keys later moves
	// only what follows.
	start := len(c.keys)
	c.keys = append(c.keys, key...)
	c.blocks = append(c.blocks, cutBlock{key: c.keys[start:len(c.keys):len(c.keys)], size: size})
}

// CutKeys returns the user keys job's merge is cut at, strictly ascending:
// part i holds the user keys in [cut i-1, cut i), the first and the last
// part are open below and above. It is nil when the job is merged whole.
// runs are job's inputs as OpenRuns opened them; it reads their index
// blocks. A lane that walks them anyway lists the blocks itself and calls
// Cuts.
func CutKeys(job *Job, runs [][]*sstable.Reader) ([][]byte, error) {
	if PartCount(job) == 1 {
		return nil, nil
	}
	n := 0
	for _, run := range runs {
		for _, r := range run {
			n += r.NumBlocks()
		}
	}
	var c CutBlocks
	c.Grow(n)
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
				c.Add(sc.Key(), h.Size)
			}
		}
	}
	return Cuts(job, []CutBlocks{c}), nil
}

// Cuts is the cut rule over the blocks lists hold: every input data block
// of job, listed run after run, each run's in index order. The list is
// sorted by index key, and cut i is the user key of the block at which
// the running sum of sizes first reaches i/PartCount of the total; a cut
// not above the one before it is left out.
func Cuts(job *Job, lists []CutBlocks) [][]byte {
	parts := PartCount(job)
	if parts == 1 || len(lists) == 0 {
		return nil
	}
	blocks := lists[0].blocks
	if len(lists) > 1 {
		n := 0
		for _, l := range lists {
			n += len(l.blocks)
		}
		blocks = make([]cutBlock, 0, n)
		for _, l := range lists {
			blocks = append(blocks, l.blocks...)
		}
	}
	var total uint64
	for _, b := range blocks {
		total += b.size
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
	return cuts
}

// RunParts runs the n key-range parts of one merge on the calling
// goroutine and up to GOMAXPROCS-1 helpers, which claim the parts in key
// order from one counter and are joined before RunParts returns. The
// caller claims part 0 before any helper starts. A part the caller claims
// when every part before it has been drained goes to direct; every other
// part (each one a helper claims, and one the caller claims while an
// earlier part is still running) goes to buffered, and once buffered has
// returned the caller drains it, in key order: between its own parts, and
// once none is left to claim, each as soon as it is done. So direct and
// drain run on the calling goroutine only, parts reach them in key order,
// part 0 always goes to direct, and at GOMAXPROCS 1 every part does. The
// first error from direct or drain stops the claiming and is returned;
// buffered parts not yet drained then never are. Both lanes merge their
// parts with it.
func RunParts(n int, direct func(k int) error, buffered func(k int), drain func(k int) error) error {
	if n == 1 {
		return direct(0)
	}
	r := &partRun{n: n, done: make([]bool, n)}
	r.cond.L = &r.mu
	k := r.claim()
	for w := min(runtime.GOMAXPROCS(0), n) - 1; w > 0; w-- {
		r.wg.Add(1)
		go r.help(buffered)
	}
	var err error
	drained := 0
	for ; k < n; k = r.claim() {
		for ; drained < k && err == nil && r.isDone(drained); drained++ {
			err = drain(drained)
		}
		if err != nil {
			break
		}
		if drained < k {
			buffered(k)
			r.markDone(k)
			continue
		}
		if err = direct(k); err != nil {
			break
		}
		drained++
	}
	for ; drained < n && err == nil; drained++ {
		r.wait(drained)
		err = drain(drained)
	}
	r.next.Store(int64(n)) // after a failure, helpers claim nothing more
	r.wg.Wait()
	return err
}

// partRun is what one RunParts call's goroutines share: the counter they
// claim parts by, which buffered parts are done, and the helpers' join.
type partRun struct {
	n    int
	next atomic.Int64
	wg   sync.WaitGroup

	mu   sync.Mutex
	cond sync.Cond // on mu: a part is done
	done []bool
}

// claim returns the next unclaimed part, n once none is left.
func (r *partRun) claim() int { return int(r.next.Add(1) - 1) }

// markDone records that buffered has returned for part k.
func (r *partRun) markDone(k int) {
	r.mu.Lock()
	r.done[k] = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// isDone reports whether buffered has returned for part k.
func (r *partRun) isDone(k int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done[k]
}

// wait blocks until buffered has returned for part k.
func (r *partRun) wait(k int) {
	r.mu.Lock()
	for !r.done[k] {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// help runs parts through buffered until none is left to claim.
func (r *partRun) help(buffered func(k int)) {
	defer r.wg.Done()
	for k := r.claim(); k < r.n; k = r.claim() {
		buffered(k)
		r.markDone(k)
	}
}

// part is one key range [lo, hi) of a merge; a nil bound is open.
type part struct {
	lo, hi []byte

	// Set by a helper that merges the part, final once RunParts drains
	// it: its blocks and counts.
	kept  *Kept
	stats Stats
	err   error
}

// Compact implements Executor. The job is cut into parts (CutKeys) and
// the parts are merged by RunParts. A part the caller merges once every
// part before it has drained hands its blocks straight to the job's
// table stitcher (Tables); any other part keeps them in pooled memory
// until the caller drains it, in key order. So env sees one goroutine
// and tables in key order, and at GOMAXPROCS 1 nothing is kept.
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
	want := in / int64(len(parts)) // about what a part's output takes, to size what keeps it
	tables := 1                    // about how many tables the job writes
	if job.MaxOutputBytes > 0 {
		tables += int(in / int64(job.MaxOutputBytes))
	}
	res := &Result{Outputs: make([]OutputTable, 0, tables), Stats: Stats{BytesRead: in, Parts: len(parts)}}
	t := NewTables(job, env, res)
	err := RunParts(len(parts),
		func(k int) error { return mergePart(job, runs, parts[k].lo, parts[k].hi, t, &res.Stats) },
		func(k int) {
			p := &parts[k]
			p.kept = GetKept(want, nil)
			p.err = mergePart(job, runs, p.lo, p.hi, p.kept, &p.stats)
		},
		func(k int) error { return parts[k].drain(t, &res.Stats) })
	for i := range parts {
		parts[i].kept.Release()
	}
	if err == nil {
		err = t.Finish()
	}
	if err != nil {
		t.Abandon()
		return nil, err
	}
	return res, nil
}

// drain hands a part merged beside the caller to t and folds its counts
// into st.
func (p *part) drain(t *Tables, st *Stats) error {
	if p.err != nil {
		return p.err
	}
	st.PairsIn += p.stats.PairsIn
	st.PairsOut += p.stats.PairsOut
	st.PairsDropped += p.stats.PairsDropped
	return p.kept.Drain(t)
}
