package compaction

import (
	"io"
	"slices"
	"sync"

	"fcae/internal/bloom"
	"fcae/internal/keys"
	"fcae/internal/snappy"
	"fcae/internal/sstable"
)

// This file is how a merge's output becomes tables, in both lanes. A part
// of the merge encodes its kept entries into sealed blocks (BlockEncoder);
// a cut ends a block, never a table. The blocks reach one stitcher
// (Tables) in key order — straight from the part merged on the calling
// goroutine, from a Kept list for a part merged beside it — and the
// stitcher alone decides where a table ends. So a job's bytes are a
// function of the job and its cuts, whoever merged which part.

// Block is one sealed output data block: its stored payload, compression
// type and sstable.PayloadSum, its entry count, its first and last
// internal keys, and the bloom.Hash of each entry's user key when the
// tables take a filter.
type Block struct {
	CType       byte
	Payload     []byte
	Sum         uint32
	Entries     int
	First, Last []byte
	Hashes      []uint32
}

// BlockSink takes a part's sealed blocks in key order. Add must not keep
// b or its slices past the call.
type BlockSink interface {
	Add(b *Block) error
}

// BlockEncoder is the Data Block Encoder of both lanes: it cuts a part's
// kept entries into blocks, sealed when their contents reach the block
// size and at the part's end, and compresses them. It is pooled, with the
// 32 KiB match-finder table it keeps across blocks.
type BlockEncoder struct {
	bw          *sstable.BlockWriter
	restarts    int // bw's restart interval
	enc         snappy.Encoder
	compression sstable.Compression
	blockSize   int
	filter      bool
	contents    []byte // the sealed block's contents, reused
	payload     []byte // their compressed form, reused
	open        Block  // the open block: keys, entry count and hashes so far
	sealed      Block  // the block sealed last
}

var blockEncoders sync.Pool

// GetBlockEncoder returns an empty encoder for the blocks of tables of
// opts; with hashes set each block carries its entries' filter hashes.
func GetBlockEncoder(opts sstable.Options, hashes bool) *BlockEncoder {
	opts = opts.WithDefaults()
	e, _ := blockEncoders.Get().(*BlockEncoder)
	if e == nil {
		e = new(BlockEncoder)
	}
	if e.bw == nil || e.restarts != opts.RestartInterval {
		e.bw, e.restarts = sstable.NewBlockWriter(opts.RestartInterval), opts.RestartInterval
	}
	e.bw.Reset()
	e.bw.Grow(2 * opts.BlockSize) // a block's contents end one entry past the block size
	e.compression, e.blockSize, e.filter = opts.Compression, opts.BlockSize, hashes
	e.open = Block{First: e.open.First[:0], Last: e.open.Last[:0], Hashes: e.open.Hashes[:0]}
	return e
}

// Release returns e to the pool.
func (e *BlockEncoder) Release() {
	blockEncoders.Put(e)
}

// Opens reports whether the next entry added begins a block.
func (e *BlockEncoder) Opens() bool { return e.open.Entries == 0 }

// Last is the last entry's internal key, empty before the first.
func (e *BlockEncoder) Last() []byte { return e.open.Last }

// Add appends an entry to the open block. When that fills the block, Add
// seals it and returns it, valid until the next call; otherwise nil.
func (e *BlockEncoder) Add(ikey, value []byte) *Block {
	if e.open.Entries == 0 {
		e.open.First = append(e.open.First[:0], ikey...)
		e.open.Hashes = e.open.Hashes[:0]
	}
	e.bw.Add(ikey, value)
	e.open.Last = append(e.open.Last[:0], ikey...)
	e.open.Entries++
	if e.filter {
		e.open.Hashes = append(e.open.Hashes, bloom.Hash(keys.UserKey(ikey)))
	}
	if e.bw.EstimatedSize() < e.blockSize {
		return nil
	}
	return e.Flush()
}

// Flush seals the open block if it holds an entry, as at the part's end,
// and returns it, valid until the next call; otherwise nil.
func (e *BlockEncoder) Flush() *Block {
	if e.open.Entries == 0 {
		return nil
	}
	e.contents = e.bw.FinishInto(e.contents[:0])
	e.sealed = e.open
	e.sealed.CType, e.sealed.Payload = sstable.EncodeBlock(&e.enc, &e.payload, e.contents, e.compression)
	e.sealed.Sum = sstable.PayloadSum(e.sealed.Payload)
	e.open.Entries = 0
	return &e.sealed
}

// Retainer copies the bytes of a block kept for later.
type Retainer interface {
	Retain(b []byte) []byte
}

// Kept is the BlockSink of a part merged beside the calling goroutine: it
// holds the part's blocks, in key order, until its turn to drain. Their
// bytes go to a Retainer when it has one, into a slab of its own
// otherwise. It is pooled.
type Kept struct {
	blocks []Block
	bytes  []byte
	hashes []uint32
	retain Retainer
	want   int64 // about the bytes the part's blocks take
}

var kepts sync.Pool

// maxPooledKept bounds what kepts keeps: one huge merge must not leave
// buffers of its size behind.
const maxPooledKept = 64 << 20

// GetKept returns an empty list for a part whose blocks take about want
// bytes; with r set, r holds the bytes instead of the list's slab.
func GetKept(want int64, r Retainer) *Kept {
	k, _ := kepts.Get().(*Kept)
	if k == nil {
		k = new(Kept)
	}
	k.blocks, k.bytes, k.hashes, k.retain, k.want = k.blocks[:0], k.bytes[:0], k.hashes[:0], r, want
	if r == nil && int64(cap(k.bytes)) < want {
		k.bytes = make([]byte, 0, min(want, maxPooledKept))
	}
	return k
}

// Release returns k to the pool; a nil list is ignored.
func (k *Kept) Release() {
	if k == nil || cap(k.bytes) > maxPooledKept {
		return
	}
	k.retain = nil
	clear(k.blocks) // drop the references into a Retainer's memory
	//fcae:alloc-ok a pointer goes into the interface as it is: Put boxes nothing
	kepts.Put(k)
}

// Add implements BlockSink: it keeps a copy of b.
func (k *Kept) Add(b *Block) error {
	if len(k.blocks) == 0 {
		// Size the lists once, from the first block: about want's worth
		// of blocks like it (a part's only block may be a sliver).
		n := int(min(k.want, maxPooledKept)/int64(max(len(b.Payload), 512))) + 1
		k.blocks = slices.Grow(k.blocks, n)
		k.hashes = slices.Grow(k.hashes, n*len(b.Hashes))
	}
	h := len(k.hashes)
	k.hashes = append(k.hashes, b.Hashes...)
	k.blocks = append(k.blocks, Block{
		CType:   b.CType,
		Payload: k.keep(b.Payload),
		Sum:     b.Sum,
		Entries: b.Entries,
		First:   k.keep(b.First),
		Last:    k.keep(b.Last),
		// A slice keeps the array it was appended to: growing hashes
		// later moves only what follows, as with bytes.
		Hashes: k.hashes[h:len(k.hashes):len(k.hashes)],
	})
	return nil
}

func (k *Kept) keep(b []byte) []byte {
	if k.retain != nil {
		return k.retain.Retain(b)
	}
	n := len(k.bytes)
	k.bytes = append(k.bytes, b...)
	return k.bytes[n:len(k.bytes):len(k.bytes)]
}

// Drain hands the kept blocks to t, in order.
func (k *Kept) Drain(t *Tables) error {
	for i := range k.blocks {
		if err := t.Add(&k.blocks[i]); err != nil {
			return err
		}
	}
	return nil
}

// Tables is the table stitcher, the one place a merge's output tables are
// decided. It takes the merge's blocks in key order and ends a table after
// a block when the table is full (sstable.TableFull, paper §V-A: "when the
// accumulated size of data blocks exceeds the threshold, the SSTable is
// completed") and the next block begins a new user key, so no user key
// spans two tables of a level. It indexes each block under
// sstable.IndexKey of its last key and the next block's first (a short
// successor at a table's end) and writes the tables through the job's
// Env, one at a time, into a Result. A cut ends a block, never a table: a
// table not yet full goes on across it.
type Tables struct {
	job *Job
	env Env
	res *Result

	// The open table; f is nil between tables. a is the job's one
	// assembler, reset for each table.
	num      uint64
	f        io.WriteCloser
	a        *sstable.Assembler
	smallest []byte
	last     []byte // the last key of the block added last
	ikey     []byte // index-key scratch

	indexKeyBytes int64
}

// NewTables returns a stitcher writing job's tables through env and
// listing them, with the bytes they take, in res.
func NewTables(job *Job, env Env, res *Result) *Tables {
	return &Tables{job: job, env: env, res: res}
}

// Add implements BlockSink.
func (t *Tables) Add(b *Block) error {
	if t.f != nil {
		if t.a.Full(int64(t.job.MaxOutputBytes)) && keys.CompareUser(keys.UserKey(b.First), keys.UserKey(t.last)) != 0 {
			if err := t.Finish(); err != nil {
				return err
			}
		} else {
			t.index(b.First)
		}
	}
	if t.f == nil {
		num, f, err := t.env.NewOutput()
		if err != nil {
			return err
		}
		if t.a == nil {
			t.a = sstable.NewAssembler(f, t.job.TableOpts)
		} else {
			t.a.Reset(f)
		}
		t.num, t.f = num, f
		t.smallest = append(t.smallest[:0], b.First...)
	}
	t.last = append(t.last[:0], b.Last...)
	return t.a.AddBlock(b.CType, b.Payload, b.Sum, b.Entries, b.Hashes)
}

// index gives the block added last its index entry, upcoming being the
// key after it (nil at the table's end).
func (t *Tables) index(upcoming []byte) {
	t.ikey = sstable.IndexKey(t.ikey[:0], t.last, upcoming)
	t.indexKeyBytes += int64(len(t.ikey))
	t.a.Index(t.ikey)
}

// Finish completes the open table, if there is one.
func (t *Tables) Finish() error {
	if t.f == nil {
		return nil
	}
	t.index(nil)
	f := t.f
	t.f = nil
	done := t.job.Trace.StartSpan("flush_table")
	t.a.SetBounds(t.smallest, t.last)
	stats, err := t.a.Finish()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	done()
	if err != nil {
		return err
	}
	t.res.Outputs = append(t.res.Outputs, NewOutputTable(t.num, stats))
	t.res.Stats.BytesWritten += stats.FileSize
	return nil
}

// Abandon closes the table a failed merge leaves open. A half-written
// output is deleted by the obsolete-file sweep, so its close error is
// irrelevant.
func (t *Tables) Abandon() {
	if t.f != nil {
		_ = t.f.Close()
		t.f = nil
	}
}

// IndexKeyBytes is the length of every index key chosen so far.
func (t *Tables) IndexKeyBytes() int64 { return t.indexKeyBytes }
