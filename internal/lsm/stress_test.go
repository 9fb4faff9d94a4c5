package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersWritersCompactions hammers the store with parallel
// writers, point readers and iterators while automatic and forced
// compactions run on the FCAE backend, under whatever detector the test
// runs with (-race in CI). The table cache is shrunk below the live table
// count, so readers constantly hold tables the LRU has already evicted;
// any error a reader sees (a closed or unlinked file above all) fails it.
func TestConcurrentReadersWritersCompactions(t *testing.T) {
	opts := smallOpts()
	opts.DispatchConfig.Devices = newDeviceChannels(t, 1)
	opts.BlockCacheBytes = 8 << 10 // reads must reach the file, not a cached block
	db := openTest(t, opts)
	const cachedTables = 2
	db.tables.mu.Lock()
	db.tables.capacity = cachedTables
	db.tables.mu.Unlock()

	const (
		writers  = 4
		readers  = 4
		scanners = 2
		perG     = 1200
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var maxTables atomic.Int64

	wg.Add(1)
	go func() { // forced compactions on top of the automatic ones
		defer wg.Done()
		for level := 0; !stop.Load(); level = (level + 1) % 3 {
			if err := db.CompactLevel(level); err != nil {
				t.Errorf("CompactLevel(%d): %v", level, err)
				return
			}
		}
	}()

	value := func(g, i int) []byte {
		return bytes.Repeat([]byte{byte('a' + g)}, 40+i%40)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := []byte(fmt.Sprintf("w%d-key%06d", g, i))
				if err := db.Put(k, value(g, i)); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				if i%7 == 0 {
					if err := db.Delete([]byte(fmt.Sprintf("w%d-key%06d", g, i/2))); err != nil {
						t.Errorf("writer %d delete: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				g := rng.Intn(writers)
				i := rng.Intn(perG)
				k := []byte(fmt.Sprintf("w%d-key%06d", g, i))
				v, err := db.Get(k)
				if err == ErrNotFound {
					continue
				}
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(v) > 0 && v[0] != byte('a'+g) {
					t.Errorf("reader saw foreign value for %q", k)
					return
				}
			}
		}(r)
	}
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				it, err := db.NewIterator()
				if err != nil {
					t.Errorf("iterator: %v", err)
					return
				}
				var prev []byte
				n := 0
				for ok := it.First(); ok && n < 500; ok = it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Error("scan out of order under concurrency")
						it.Close()
						return
					}
					prev = append(prev[:0], it.Key()...)
					n++
				}
				if err := it.Error(); err != nil {
					t.Errorf("scan: %v", err)
				}
				if n := int64(it.state.version.TotalFiles()); n > maxTables.Load() {
					maxTables.Store(n)
				}
				it.Close()
			}
		}()
	}

	// Wait for the writers, then release readers and scanners.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Writers finish first; signal stop once the writer count drains. A
	// simple approach: wait for the writers via a second group.
	// (The readers loop on stop.Load; flip it when writers are done.)
	writersDone := make(chan struct{})
	go func() {
		// The writer goroutines are the first `writers` Adds; poll the DB
		// write counter instead of instrumenting them.
		for {
			st := db.Stats()
			if st.Writes >= int64(writers*perG) {
				close(writersDone)
				return
			}
			if stop.Load() {
				return
			}
		}
	}()
	<-writersDone
	stop.Store(true)
	<-done

	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.HWCompactions == 0 {
		t.Fatal("stress run triggered no engine compactions")
	}
	if maxTables.Load() <= cachedTables {
		t.Fatalf("never more than %d live tables; the %d-table cache was not under pressure", maxTables.Load(), cachedTables)
	}
	// Final spot-checks.
	for g := 0; g < writers; g++ {
		k := []byte(fmt.Sprintf("w%d-key%06d", g, perG-1))
		if _, err := db.Get(k); err != nil {
			t.Fatalf("final Get(%q): %v", k, err)
		}
	}
}

// TestGroupCommitCoalesces verifies that concurrent writers share WAL
// records and that every batch's contents survive.
func TestGroupCommitCoalesces(t *testing.T) {
	opts := Options{SyncWrites: true} // syncs make grouping observable
	db := openTest(t, opts)
	const writers, perW = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := []byte(fmt.Sprintf("g%d-%05d", g, i))
				if err := db.Put(k, k); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := db.Stats()
	if st.GroupedWrites != writers*perW {
		t.Fatalf("GroupedWrites = %d, want %d", st.GroupedWrites, writers*perW)
	}
	if st.GroupCommits >= st.GroupedWrites {
		t.Fatalf("no coalescing happened: %d commits for %d writes", st.GroupCommits, st.GroupedWrites)
	}
	t.Logf("coalesced %d writes into %d WAL records", st.GroupedWrites, st.GroupCommits)
	for g := 0; g < writers; g++ {
		for _, i := range []int{0, perW / 2, perW - 1} {
			k := []byte(fmt.Sprintf("g%d-%05d", g, i))
			if v, err := db.Get(k); err != nil || !bytes.Equal(v, k) {
				t.Fatalf("Get(%s): %v", k, err)
			}
		}
	}
}

// TestGroupCommitRecovery ensures grouped WAL records replay correctly.
func TestGroupCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Put([]byte(fmt.Sprintf("r%d-%04d", g, i)), []byte("v"))
			}
		}(g)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for g := 0; g < 4; g++ {
		for i := 0; i < 200; i++ {
			if _, err := db2.Get([]byte(fmt.Sprintf("r%d-%04d", g, i))); err != nil {
				t.Fatalf("recovered Get(r%d-%04d): %v", g, i, err)
			}
		}
	}
}
