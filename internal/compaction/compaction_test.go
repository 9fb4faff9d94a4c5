package compaction

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/sstable"
)

type memReaderAt []byte

func (m memReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m)) {
		return 0, fmt.Errorf("read past end")
	}
	n := copy(p, m[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

type memEnv struct {
	next  uint64
	files map[uint64]*bytes.Buffer
}

func newMemEnv() *memEnv { return &memEnv{next: 100, files: map[uint64]*bytes.Buffer{}} }

type bufCloser struct{ *bytes.Buffer }

func (bufCloser) Close() error { return nil }

func (e *memEnv) NewOutput() (uint64, io.WriteCloser, error) {
	num := e.next
	e.next++
	b := &bytes.Buffer{}
	e.files[num] = b
	return num, bufCloser{b}, nil
}

type kv struct {
	user  string
	seq   uint64
	kind  keys.Kind
	value string
}

func table(t *testing.T, entries []kv) Table {
	t.Helper()
	var buf bytes.Buffer
	w := sstable.NewWriter(&buf, sstable.Options{})
	for _, e := range entries {
		ik := keys.MakeInternal(nil, []byte(e.user), e.seq, e.kind)
		if err := w.Add(ik, []byte(e.value)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return Table{Num: 1, Size: int64(buf.Len()), Data: memReaderAt(buf.Bytes())}
}

func scan(t *testing.T, env *memEnv, res *Result) []kv {
	t.Helper()
	var out []kv
	for _, ot := range res.Outputs {
		buf := env.files[ot.Num]
		r, err := sstable.NewReader(memReaderAt(buf.Bytes()), int64(buf.Len()), sstable.Options{}, nil, ot.Num)
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			seq, kind := keys.DecodeTrailer(it.Key())
			out = append(out, kv{string(keys.UserKey(it.Key())), seq, kind, string(it.Value())})
		}
	}
	return out
}

func run(t *testing.T, job *Job) (*memEnv, *Result) {
	t.Helper()
	env := newMemEnv()
	res, err := CPU{}.Compact(job, env)
	if err != nil {
		t.Fatal(err)
	}
	return env, res
}

func TestMergeKeepsNewestVersion(t *testing.T) {
	job := &Job{
		Runs: [][]Table{
			{table(t, []kv{{"k", 9, keys.KindSet, "new"}})},
			{table(t, []kv{{"k", 3, keys.KindSet, "old"}})},
		},
		SmallestSnapshot: keys.MaxSeq,
		TableOpts:        sstable.Options{},
		MaxOutputBytes:   1 << 20,
	}
	env, res := run(t, job)
	got := scan(t, env, res)
	if len(got) != 1 || got[0].value != "new" {
		t.Fatalf("got %v", got)
	}
	if res.Stats.PairsDropped != 1 {
		t.Fatalf("dropped %d, want 1", res.Stats.PairsDropped)
	}
}

func TestTombstoneKeptAboveBottomLevel(t *testing.T) {
	job := &Job{
		Runs:             [][]Table{{table(t, []kv{{"k", 5, keys.KindDelete, ""}})}},
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      false,
		TableOpts:        sstable.Options{},
		MaxOutputBytes:   1 << 20,
	}
	env, res := run(t, job)
	got := scan(t, env, res)
	if len(got) != 1 || got[0].kind != keys.KindDelete {
		t.Fatalf("tombstone must survive above the bottom level: %v", got)
	}
	_ = env
}

func TestTombstoneDroppedAtBottomLevel(t *testing.T) {
	job := &Job{
		Runs:             [][]Table{{table(t, []kv{{"k", 5, keys.KindDelete, ""}, {"k", 2, keys.KindSet, "v"}})}},
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        sstable.Options{},
		MaxOutputBytes:   1 << 20,
	}
	env, res := run(t, job)
	if got := scan(t, env, res); len(got) != 0 {
		t.Fatalf("bottom-level merge kept %v", got)
	}
	if len(res.Outputs) != 0 {
		t.Fatal("empty output table emitted")
	}
}

func TestSnapshotPinsOlderVersions(t *testing.T) {
	job := &Job{
		Runs: [][]Table{{table(t, []kv{
			{"k", 9, keys.KindSet, "v9"},
			{"k", 5, keys.KindSet, "v5"},
			{"k", 2, keys.KindSet, "v2"},
		})}},
		SmallestSnapshot: 5,
		BottomLevel:      true,
		TableOpts:        sstable.Options{},
		MaxOutputBytes:   1 << 20,
	}
	env, res := run(t, job)
	got := scan(t, env, res)
	// v9 is newest, v5 is the version visible at snapshot 5; v2 is shadowed.
	if len(got) != 2 || got[0].seq != 9 || got[1].seq != 5 {
		t.Fatalf("snapshot merge kept %v", got)
	}
}

func TestUserKeyNeverSplitsAcrossOutputs(t *testing.T) {
	// Many versions of one key under a tiny output threshold must still
	// end up in a single table. A table ends only after a block, so the
	// tail is long enough that a block begins with one of its keys.
	var versions []kv
	for i := 100; i > 0; i-- {
		versions = append(versions, kv{"hot", uint64(i), keys.KindSet, fmt.Sprintf("%0100d", i)})
	}
	var tail []kv
	for i := 0; i < 60; i++ {
		tail = append(tail, kv{fmt.Sprintf("z%02d", i), 1, keys.KindSet, fmt.Sprintf("%0100d", i)})
	}
	job := &Job{
		Runs:             [][]Table{{table(t, append(versions, tail...))}},
		SmallestSnapshot: 0, // every version pinned
		TableOpts:        sstable.Options{},
		MaxOutputBytes:   512,
	}
	env, res := run(t, job)
	if len(res.Outputs) < 2 {
		t.Fatalf("threshold should force several outputs, got %d", len(res.Outputs))
	}
	// All "hot" versions must live in exactly one output table.
	holders := 0
	for _, ot := range res.Outputs {
		buf := env.files[ot.Num]
		r, _ := sstable.NewReader(memReaderAt(buf.Bytes()), int64(buf.Len()), sstable.Options{}, nil, ot.Num)
		it := r.NewIterator()
		found := false
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if string(keys.UserKey(it.Key())) == "hot" {
				found = true
			}
		}
		if found {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("user key split across %d output tables", holders)
	}
}

func TestJobAccounting(t *testing.T) {
	a := table(t, []kv{{"a", 1, keys.KindSet, "1"}})
	b := table(t, []kv{{"b", 2, keys.KindSet, "2"}})
	job := &Job{Runs: [][]Table{{a}, {b}}, SmallestSnapshot: keys.MaxSeq, TableOpts: sstable.Options{}, MaxOutputBytes: 1 << 20}
	if job.NumRuns() != 2 {
		t.Fatalf("NumRuns = %d", job.NumRuns())
	}
	if job.InputBytes() != a.Size+b.Size {
		t.Fatalf("InputBytes = %d", job.InputBytes())
	}
	env, res := run(t, job)
	if res.Stats.PairsIn != 2 || res.Stats.PairsOut != 2 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.BytesRead != job.InputBytes() || res.Stats.BytesWritten <= 0 {
		t.Fatalf("byte accounting wrong: %+v", res.Stats)
	}
	_ = env
}

func TestCPUExecutorInterface(t *testing.T) {
	var x Executor = CPU{}
	if x.Name() != "cpu" || x.MaxRuns() != 0 {
		t.Fatalf("unexpected executor identity: %s/%d", x.Name(), x.MaxRuns())
	}
}

func TestMultiTableRunConcatenates(t *testing.T) {
	t1 := table(t, []kv{{"a", 1, keys.KindSet, "1"}, {"b", 2, keys.KindSet, "2"}})
	t2 := table(t, []kv{{"c", 3, keys.KindSet, "3"}})
	job := &Job{Runs: [][]Table{{t1, t2}}, SmallestSnapshot: keys.MaxSeq, TableOpts: sstable.Options{}, MaxOutputBytes: 1 << 20}
	env, res := run(t, job)
	got := scan(t, env, res)
	if len(got) != 3 || got[0].user != "a" || got[2].user != "c" {
		t.Fatalf("concat merge = %v", got)
	}
}
