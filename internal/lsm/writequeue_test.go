package lsm

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupCommitAllocationBound pins the cost of the writer queue's
// multi-writer path: the group record is built in a buffer the DB keeps,
// so a commit of small Puts allocates what its writers allocate (a batch
// and a queue entry each) and nothing proportional to maxGroupBytes.
func TestGroupCommitAllocationBound(t *testing.T) {
	// SyncWrites makes the fsync the commit cost followers pile up
	// behind, so nearly every commit is a multi-writer group.
	db := openTest(t, Options{SyncWrites: true})
	const writers, perW = 8, 100
	value := make([]byte, 16)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var key [8]byte
			for i := 0; i < perW; i++ {
				binary.BigEndian.PutUint64(key[:], uint64(g*perW+i))
				if err := db.Put(key[:], value); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	st := db.Stats()
	if st.GroupedWrites != writers*perW {
		t.Fatalf("GroupedWrites = %d, want %d", st.GroupedWrites, writers*perW)
	}
	if st.GroupCommits*2 > st.GroupedWrites {
		t.Fatalf("%d commits for %d writes: too few multi-writer groups to measure", st.GroupCommits, st.GroupedWrites)
	}
	perCommit := (after.TotalAlloc - before.TotalAlloc) / uint64(st.GroupCommits)
	t.Logf("%d writes in %d commits, %d B allocated per commit", st.GroupedWrites, st.GroupCommits, perCommit)
	const bound = 16 << 10
	if perCommit > bound {
		t.Fatalf("%d B allocated per group commit, want <= %d (maxGroupBytes is %d)", perCommit, bound, maxGroupBytes)
	}
	if d := db.WriteQueueDepth(); d != 0 {
		t.Fatalf("write_queue_depth = %d with no writer in flight", d)
	}
}

// BenchmarkDBWriteParallel drives the writer queue from many goroutines:
// small Puts, no fsync, so what it times is queueing, group building, the
// WAL append and the memtable insert.
func BenchmarkDBWriteParallel(b *testing.B) {
	db, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	value := make([]byte, 128)
	var next atomic.Uint64
	b.ReportAllocs()
	b.SetBytes(8 + 128)
	b.SetParallelism(8) // 8 x GOMAXPROCS writers: groups form even on 2 cores
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var key [8]byte
		for pb.Next() {
			binary.BigEndian.PutUint64(key[:], next.Add(1))
			if err := db.Put(key[:], value); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := db.Stats()
	b.ReportMetric(float64(st.GroupedWrites)/float64(st.GroupCommits), "writes/commit")
}
