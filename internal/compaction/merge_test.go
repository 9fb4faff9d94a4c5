package compaction

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// buildRun builds one sorted run of n entries drawn from a keyspace of
// width `space`, seeded deterministically, split into tables of at most
// tableEntries entries.
func buildRun(t *testing.T, rng *rand.Rand, opts sstable.Options, n, space, tableEntries int, baseSeq uint64) []Table {
	t.Helper()
	users := make(map[string]bool, n)
	for len(users) < n {
		users[fmt.Sprintf("key%06d", rng.Intn(space))] = true
	}
	sorted := make([]string, 0, n)
	for u := range users {
		sorted = append(sorted, u)
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var tables []Table
	var buf bytes.Buffer
	var w *sstable.Writer
	entries := 0
	num := uint64(1)
	flush := func() {
		if w == nil {
			return
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), buf.Bytes()...)
		tables = append(tables, Table{Num: num, Size: int64(len(data)), Data: memReaderAt(data)})
		num++
		w = nil
		buf.Reset()
	}
	for _, u := range sorted {
		if w == nil {
			w = sstable.NewWriter(&buf, opts)
			entries = 0
		}
		kind := keys.KindSet
		if rng.Intn(10) == 0 {
			kind = keys.KindDelete
		}
		ik := keys.MakeInternal(nil, []byte(u), baseSeq+uint64(rng.Intn(50)), kind)
		val := bytes.Repeat([]byte(u), 1+rng.Intn(8))
		if err := w.Add(ik, val); err != nil {
			t.Fatal(err)
		}
		entries++
		if entries >= tableEntries {
			flush()
		}
	}
	flush()
	return tables
}

// mergeJob builds a multi-run job with overlapping keys, tombstones
// and duplicate user keys across runs.
func mergeJob(t *testing.T, seed int64, opts sstable.Options, maxOut uint64) *Job {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	job := &Job{
		SmallestSnapshot: 40, // keep some shadowed versions, drop others
		BottomLevel:      true,
		TableOpts:        opts,
		MaxOutputBytes:   maxOut,
	}
	for r := 0; r < 3; r++ {
		job.Runs = append(job.Runs,
			buildRun(t, rng, opts, 300, 600, 120, uint64(r)*60))
	}
	return job
}

// failingFile fails every write once `failAfter` bytes have been written
// through the env.
type failingFile struct {
	env *failingEnv
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.env.written >= f.env.failAfter {
		return 0, fmt.Errorf("injected write failure")
	}
	f.env.written += len(p)
	return len(p), nil
}

func (f failingFile) Close() error {
	f.env.closed++
	return nil
}

type failingEnv struct {
	next      uint64
	written   int
	failAfter int
	closed    int
}

func (e *failingEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	return e.next, failingFile{env: e}, nil
}

// TestCompactWriteFailure injects a write failure into the first block,
// a later block and a later table: the error surfaces, and every file the
// merge opened is closed exactly once.
func TestCompactWriteFailure(t *testing.T) {
	for _, failAfter := range []int{0, 1 << 10, 8 << 10} {
		job := mergeJob(t, 7, sstable.Options{BlockSize: 512, Compression: sstable.SnappyCompression}, 4<<10)
		env := &failingEnv{failAfter: failAfter}
		_, err := CPU{}.Compact(job, env)
		if err == nil {
			t.Fatalf("failAfter=%d: compaction succeeded despite failing writer", failAfter)
		}
		if env.next == 0 || env.closed != int(env.next) {
			t.Fatalf("failAfter=%d: %d files opened, %d closed", failAfter, env.next, env.closed)
		}
	}
}
