package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/sstable"
)

func TestArenaSizing(t *testing.T) {
	if a := NewArena(0); a != nil {
		t.Fatal("NewArena(0) must disable the arena")
	}
	if a := NewArena(-4096); a != nil {
		t.Fatal("NewArena(<0) must disable the arena")
	}
	a := NewArena(8192)
	if got := a.Cap(); got != 8192 {
		t.Fatalf("Cap = %d, want 8192", got)
	}
	// 1/8 index, 1/2 data, remainder output.
	if got := a.InputBudget(); got != 4096-4096/8 {
		t.Fatalf("InputBudget = %d, want %d", got, 4096-4096/8)
	}
	if got := a.InUse(); got != 0 {
		t.Fatalf("fresh arena InUse = %d, want 0", got)
	}
}

func TestNilArenaSafe(t *testing.T) {
	var a *Arena
	a.Reset() // must not panic
	if a.Cap() != 0 || a.InUse() != 0 || a.InputBudget() != 0 || a.HighWater() != 0 {
		t.Fatalf("nil arena reported non-zero sizes: cap=%d use=%d budget=%d hw=%d",
			a.Cap(), a.InUse(), a.InputBudget(), a.HighWater())
	}
	if _, ok := a.takeOut(1); ok {
		t.Fatal("nil arena handed out memory")
	}
}

// TestArenaHighWater proves the high-water mark tracks peak occupancy and
// survives Reset: it is the lifetime provisioning figure, not a per-job one.
func TestArenaHighWater(t *testing.T) {
	a := NewArena(8192)
	if got := a.HighWater(); got != 0 {
		t.Fatalf("fresh arena HighWater = %d, want 0", got)
	}
	a.commitStaging(100, 200)
	if got := a.HighWater(); got != 300 {
		t.Fatalf("after commitStaging(100,200): HighWater = %d, want 300", got)
	}
	if _, ok := a.takeOut(50); !ok {
		t.Fatal("takeOut(50) failed on a fresh region")
	}
	if got := a.HighWater(); got != 350 {
		t.Fatalf("after takeOut(50): HighWater = %d, want 350", got)
	}
	a.Reset()
	if got := a.InUse(); got != 0 {
		t.Fatalf("after Reset: InUse = %d, want 0", got)
	}
	if got := a.HighWater(); got != 350 {
		t.Fatalf("Reset must not rewind HighWater: got %d, want 350", got)
	}
	// A smaller next job must not lower the mark; a larger one raises it.
	a.commitStaging(10, 20)
	if got := a.HighWater(); got != 350 {
		t.Fatalf("smaller job lowered HighWater to %d, want 350", got)
	}
	a.commitStaging(400, 500)
	if got := a.HighWater(); got != 930 {
		t.Fatalf("larger job: HighWater = %d, want 930", got)
	}
}

func TestConfigArenaBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StagingBytes = 12345
	if got := cfg.ArenaBytes(); got != 12345 {
		t.Fatalf("explicit StagingBytes: ArenaBytes = %d, want 12345", got)
	}
	cfg.StagingBytes = 0
	want := int64(cfg.N) * DefaultArenaPerLane
	if want > MaxArenaBytes {
		want = MaxArenaBytes
	}
	if got := cfg.ArenaBytes(); got != want {
		t.Fatalf("modeled default: ArenaBytes = %d, want %d", got, want)
	}
	// The admission budget a simulator reads off the config is the one the
	// built arena reports.
	for _, staging := range []int64{0, 8 << 10, 12345} {
		cfg.StagingBytes = staging
		if got, want := cfg.ArenaInputBudget(), NewArena(cfg.ArenaBytes()).InputBudget(); got != want {
			t.Errorf("StagingBytes %d: Config.ArenaInputBudget = %d, Arena.InputBudget = %d", staging, got, want)
		}
	}
}

func TestArenaTakeOutAndReset(t *testing.T) {
	a := NewArena(8192)
	outRegion := int(a.Cap()) - len(a.index) - len(a.data)
	dst, ok := a.takeOut(16)
	if !ok || len(dst) != 0 || cap(dst) != 16 {
		t.Fatalf("takeOut(16) = len %d cap %d ok %v, want empty slice with cap 16", len(dst), cap(dst), ok)
	}
	dst = append(dst, bytes.Repeat([]byte{0xAB}, 16)...)
	if got := a.InUse(); got != 16 {
		t.Fatalf("InUse = %d after takeOut(16), want 16", got)
	}
	// A second reservation must not alias the first.
	dst2, ok := a.takeOut(16)
	if !ok {
		t.Fatal("second takeOut failed")
	}
	dst2 = append(dst2, bytes.Repeat([]byte{0xCD}, 16)...)
	if dst[0] != 0xAB || dst2[0] != 0xCD {
		t.Fatal("takeOut reservations alias each other")
	}
	if _, ok := a.takeOut(outRegion); ok {
		t.Fatal("takeOut handed out more than the output region holds")
	}
	a.Reset()
	if got := a.InUse(); got != 0 {
		t.Fatalf("InUse = %d after Reset, want 0", got)
	}
	if _, ok := a.takeOut(outRegion); !ok {
		t.Fatal("full output region unavailable after Reset")
	}
}

// TestArenaTakeOutConcurrent: a run's parts retain output from one arena
// at once. Reservations taken from several goroutines never overlap,
// the region is never handed out past its end, and InUse and HighWater
// count every byte handed out.
func TestArenaTakeOutConcurrent(t *testing.T) {
	a := NewArena(1 << 21)
	outRegion := int(a.Cap()) - len(a.index) - len(a.data)
	const workers, size = 4, 24
	var wg sync.WaitGroup
	taken := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				dst, ok := a.takeOut(size)
				if !ok {
					return
				}
				taken[w] = append(taken[w], append(dst, bytes.Repeat([]byte{byte(w + 1)}, size)...))
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for w, ts := range taken {
		for _, b := range ts {
			if !bytes.Equal(b, bytes.Repeat([]byte{byte(w + 1)}, size)) {
				t.Fatalf("worker %d's reservation was overwritten: %v", w, b)
			}
		}
		n += len(ts)
	}
	if want := outRegion / size; n != want {
		t.Fatalf("%d reservations of %d bytes from a %d-byte region, want %d", n, size, outRegion, want)
	}
	if got := a.InUse(); got != int64(n*size) {
		t.Fatalf("InUse = %d, want %d", got, n*size)
	}
	if got := a.HighWater(); got != a.InUse() {
		t.Fatalf("HighWater = %d, want InUse %d", got, a.InUse())
	}
}

func TestArenaBuilderExhaustion(t *testing.T) {
	a := NewArena(1024) // 512B data region
	b := NewInputBuilderArena(64, a)
	b.BeginTable()
	if err := b.AddBlock([]byte("k1"), 0, make([]byte, 1024)); err == nil {
		t.Fatal("AddBlock accepted a block larger than the data region")
	} else if !errors.Is(err, compaction.ErrArenaExhausted) {
		t.Fatalf("AddBlock error = %v, want ErrArenaExhausted", err)
	}
}

// TestArenaImageMatchesHeap proves arena staging is invisible in the image
// bytes: the same run serialized with and without an arena is identical.
func TestArenaImageMatchesHeap(t *testing.T) {
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	run := []compaction.Table{buildTable(t, opts, genRun("key-", 500, 64, 100))}

	heap, err := BuildInputImage(run, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(1 << 20)
	runs, err := compaction.OpenRuns(&compaction.Job{Runs: [][]compaction.Table{run}, TableOpts: opts})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := stageInputImage(runs[0], 64, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(heap.IndexMem, staged.IndexMem) {
		t.Fatal("arena-staged index memory differs from heap-built")
	}
	if !bytes.Equal(heap.DataMem, staged.DataMem) {
		t.Fatal("arena-staged data memory differs from heap-built")
	}
	if a.InUse() != int64(len(staged.IndexMem)+len(staged.DataMem)) {
		t.Fatalf("arena InUse = %d, want staged %d", a.InUse(), len(staged.IndexMem)+len(staged.DataMem))
	}
}

// TestExecutorArenaEquivalence proves an executor reusing its arena
// across repeated jobs on the same channel (exercising Reset-and-reuse)
// writes the CPU lane's files every time.
func TestExecutorArenaEquivalence(t *testing.T) {
	mkJob := func(seqBase uint64) *compaction.Job {
		opts := sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}
		runA := genRun("key-a", 400, 64, seqBase)
		runB := genRun("key-b", 300, 64, seqBase+1000)
		return defaultJob(
			[]compaction.Table{buildTable(t, opts, runA)},
			[]compaction.Table{buildTable(t, opts, runB)},
		)
	}

	withArena, err := NewExecutor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if withArena.ArenaBytes() == 0 {
		t.Fatal("default config must enable the arena")
	}

	for round := 0; round < 3; round++ {
		job := mkJob(uint64(100 * (round + 1)))
		envA, envB := newMemEnv(), newMemEnv()
		resA, err := withArena.Compact(job, envA)
		if err != nil {
			t.Fatalf("round %d arena compact: %v", round, err)
		}
		resB, err := compaction.CPU{}.Compact(job, envB)
		if err != nil {
			t.Fatalf("round %d cpu compact: %v", round, err)
		}
		requireSameFiles(t, envA, resA, envB, resB)
	}
	if hw, cap := withArena.ArenaHighWater(), withArena.ArenaBytes(); hw <= 0 || hw > cap {
		t.Fatalf("ArenaHighWater = %d after arena-backed jobs, want in (0, %d]", hw, cap)
	}
}

// TestExecutorArenaExhausted proves a job too large for a deliberately
// tiny arena surfaces the sentinel the dispatcher routes on.
func TestExecutorArenaExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StagingBytes = 2048 // 1KiB data region; the run below cannot fit
	x, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := defaultJob([]compaction.Table{buildTable(t, opts, genRun("key-", 500, 64, 100))})
	if _, err := x.Compact(job, newMemEnv()); !errors.Is(err, compaction.ErrArenaExhausted) {
		t.Fatalf("Compact = %v, want ErrArenaExhausted", err)
	}
}
