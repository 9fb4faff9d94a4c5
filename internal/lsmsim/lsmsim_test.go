package lsmsim

import (
	"fmt"
	"strings"
	"testing"

	"fcae/internal/core"
	"fcae/internal/lsm"
	"fcae/internal/workload"
)

func fill(t *testing.T, cfg Config) Result {
	t.Helper()
	r := RunFill(cfg)
	if r.Elapsed <= 0 || r.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	return r
}

func TestFCAEBeatsLevelDBOnRandomFill(t *testing.T) {
	base := Config{ValueLen: 512, DataBytes: 256 << 20}
	cpu := fill(t, base)
	fcaeCfg := base
	fcaeCfg.Backend = BackendFCAE
	fcae := fill(t, fcaeCfg)
	ratio := fcae.Throughput / cpu.Throughput
	if ratio < 1.5 {
		t.Fatalf("FCAE speedup %.2f, expected well above 1 (paper: 2.25-6.4x)", ratio)
	}
	if fcae.HWCompactions == 0 {
		t.Fatal("no compactions offloaded to the engine")
	}
}

func TestSpeedupGrowsWithValueLength(t *testing.T) {
	ratio := func(lv int) float64 {
		base := Config{ValueLen: lv, DataBytes: 256 << 20}
		cpu := fill(t, base)
		f := base
		f.Backend = BackendFCAE
		return fill(t, f).Throughput / cpu.Throughput
	}
	small, large := ratio(64), ratio(2048)
	if large <= small {
		t.Fatalf("speedup at 2048B (%.2f) should exceed 64B (%.2f), per Table VI", large, small)
	}
}

func TestLevelDBDegradesWithDataSize(t *testing.T) {
	small := fill(t, Config{ValueLen: 512, DataBytes: 128 << 20})
	large := fill(t, Config{ValueLen: 512, DataBytes: 2 << 30})
	if large.Throughput >= small.Throughput {
		t.Fatalf("LevelDB should slow with size (Fig 10): %.1f -> %.1f", small.Throughput, large.Throughput)
	}
}

func TestFCAEDegradesMoreGentlyThanLevelDB(t *testing.T) {
	run := func(b Backend, bytes int64) float64 {
		return fill(t, Config{ValueLen: 512, DataBytes: bytes, Backend: b}).Throughput
	}
	cpuDrop := run(BackendCPU, 128<<20) / run(BackendCPU, 2<<30)
	fcaeDrop := run(BackendFCAE, 128<<20) / run(BackendFCAE, 2<<30)
	if fcaeDrop >= cpuDrop {
		t.Fatalf("FCAE degradation %.2fx should be gentler than LevelDB's %.2fx (Fig 10)", fcaeDrop, cpuDrop)
	}
}

func TestTwoInputEngineFallsBackOnL0(t *testing.T) {
	cfg := Config{ValueLen: 512, DataBytes: 256 << 20, Backend: BackendFCAE, Engine: core.DefaultConfig()}
	r := fill(t, cfg)
	if r.SWFallbacks == 0 {
		t.Fatal("N=2 engine must fall back to software for L0 merges (paper §VII-B)")
	}
	nine := Config{ValueLen: 512, DataBytes: 256 << 20, Backend: BackendFCAE}
	r9 := fill(t, nine)
	if r9.SWFallbacks >= r.SWFallbacks {
		t.Fatalf("9-input engine should take more jobs in hardware: %d vs %d fallbacks", r9.SWFallbacks, r.SWFallbacks)
	}
}

func TestWriteAmplificationReasonable(t *testing.T) {
	r := fill(t, Config{ValueLen: 512, DataBytes: 1 << 30})
	if r.WriteAmp < 2 || r.WriteAmp > 40 {
		t.Fatalf("write amplification %.1f out of plausible range", r.WriteAmp)
	}
	if r.MaxLevel < 2 {
		t.Fatalf("1 GB should reach at least L2, got L%d", r.MaxLevel)
	}
}

func TestStallsAppearUnderCompactionPressure(t *testing.T) {
	r := fill(t, Config{ValueLen: 512, DataBytes: 2 << 30})
	if r.StallTime == 0 && r.StopStalls == 0 {
		t.Fatal("a 2 GB CPU-backend fill should hit write stalls (paper §I)")
	}
}

// TestSlowdownBeforeStop sets the slowdown and stop triggers equal. The
// store's ladder slows a write down while its memtable has room and stops
// it only once the memtable is full, so the simulator, which asks the same
// ladder, must charge slowdowns too. Flushes get their own core so one can
// land while the writer still has room, as the store's worker pool lets it.
func TestSlowdownBeforeStop(t *testing.T) {
	r := fill(t, Config{ValueLen: 512, DataBytes: 1 << 30, OverlapCPUFlush: true,
		Store: lsm.Options{L0SlowdownTrigger: 8, L0StopTrigger: 8}})
	if r.SlowdownWrites == 0 {
		t.Fatalf("no slowed writes with L0SlowdownTrigger == L0StopTrigger (%d stop stalls)", r.StopStalls)
	}
}

func TestBlockSizeInsensitive(t *testing.T) {
	// Paper Fig 15c: throughput is flat in data block size.
	small := fill(t, Config{ValueLen: 128, Store: lsm.Options{BlockSize: 2 << 10}, DataBytes: 256 << 20, Backend: BackendFCAE})
	large := fill(t, Config{ValueLen: 128, Store: lsm.Options{BlockSize: 1 << 20}, DataBytes: 256 << 20, Backend: BackendFCAE})
	ratio := small.Throughput / large.Throughput
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("block size changed throughput by %.2fx; paper says flat", ratio)
	}
}

func TestLevelingRatioReducesSpeedup(t *testing.T) {
	// Paper Fig 15d: larger leveling ratio -> less frequent compaction ->
	// smaller FCAE advantage.
	speedup := func(ratio int) float64 {
		base := Config{ValueLen: 128, Store: lsm.Options{LevelRatio: ratio}, DataBytes: 512 << 20}
		cpu := fill(t, base)
		f := base
		f.Backend = BackendFCAE
		return fill(t, f).Throughput / cpu.Throughput
	}
	if s4, s16 := speedup(4), speedup(16); s16 >= s4 {
		t.Fatalf("speedup should fall with leveling ratio: ratio4=%.2f ratio16=%.2f", s4, s16)
	}
}

func TestFlushOverlapMattersForLongMerges(t *testing.T) {
	// The §VI-A schedule benefit (flushes overlapping compactions) is
	// large when merges are long, i.e. on the CPU backend: giving the
	// baseline's flushes their own core must speed it up clearly.
	base := Config{ValueLen: 512, DataBytes: 1 << 30}
	serialized := fill(t, base)
	over := base
	over.OverlapCPUFlush = true
	overlapped := fill(t, over)
	if overlapped.Throughput < serialized.Throughput*1.1 {
		t.Fatalf("overlapping flushes with long merges should help: %.1f vs %.1f",
			overlapped.Throughput, serialized.Throughput)
	}
}

func TestSerializeFlushNearNeutralForShortMerges(t *testing.T) {
	// With the engine's short merges, serializing flushes behind them
	// barely matters (and deferral batches L0 work); the two schedules
	// must stay within ~15% of each other.
	base := Config{ValueLen: 512, DataBytes: 512 << 20, Backend: BackendFCAE}
	over := fill(t, base)
	ser := base
	ser.SerializeFlush = true
	serialized := fill(t, ser)
	ratio := serialized.Throughput / over.Throughput
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("FCAE schedule variants diverged by %.2fx", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{ValueLen: 256, DataBytes: 128 << 20, Backend: BackendFCAE}
	a, b := RunFill(cfg), RunFill(cfg)
	if a.Elapsed != b.Elapsed || a.Compactions != b.Compactions {
		t.Fatalf("simulation not deterministic: %v/%d vs %v/%d", a.Elapsed, a.Compactions, b.Elapsed, b.Compactions)
	}
}

// ycsbRow returns the Table IX row named name.
func ycsbRow(t *testing.T, name string) workload.Workload {
	t.Helper()
	for _, w := range workload.YCSB {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("no Table IX row %q", name)
	return workload.Workload{}
}

func TestYCSBReadOnlyUnchanged(t *testing.T) {
	// Paper Fig 16: workload C (read only) is identical across backends.
	cpu := RunYCSB(Config{ValueLen: 1024}, ycsbRow(t, "C"), 2<<30, 1_000_000)
	fcae := RunYCSB(Config{ValueLen: 1024, Backend: BackendFCAE}, ycsbRow(t, "C"), 2<<30, 1_000_000)
	ratio := fcae / cpu
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("read-only workload changed by %.3fx across backends", ratio)
	}
}

func TestYCSBSpeedupGrowsWithWriteRatio(t *testing.T) {
	ratio := func(w workload.Workload) float64 {
		cpu := RunYCSB(Config{ValueLen: 1024}, w, 2<<30, 1_000_000)
		f := RunYCSB(Config{ValueLen: 1024, Backend: BackendFCAE}, w, 2<<30, 1_000_000)
		return f / cpu
	}
	b, a, load := ratio(ycsbRow(t, "B")), ratio(ycsbRow(t, "A")), ratio(ycsbRow(t, "Load"))
	if !(load >= a && a >= b && b >= 0.99) {
		t.Fatalf("speedups should grow with write ratio: B=%.2f A=%.2f Load=%.2f", b, a, load)
	}
}

func TestYCSBNoRegressionAnywhere(t *testing.T) {
	// Paper: "LevelDB-FCAE outperforms LevelDB in all workloads".
	for _, w := range workload.YCSB {
		cpu := RunYCSB(Config{ValueLen: 1024}, w, 1<<30, 500_000)
		f := RunYCSB(Config{ValueLen: 1024, Backend: BackendFCAE}, w, 1<<30, 500_000)
		if f < cpu*0.98 {
			t.Errorf("workload %s regressed: %.1f vs %.1f kops", w.Name, f, cpu)
		}
	}
}

func TestPCIeAccountingPresent(t *testing.T) {
	r := fill(t, Config{ValueLen: 512, DataBytes: 512 << 20, Backend: BackendFCAE})
	if r.PCIeTime <= 0 || r.PCIeBytes <= 0 || r.KernelTime <= 0 {
		t.Fatalf("device accounting missing: %+v", r)
	}
	if float64(r.PCIeTime) > 0.5*float64(r.Elapsed) {
		t.Fatalf("PCIe share %.0f%% implausibly high", float64(r.PCIeTime)/float64(r.Elapsed)*100)
	}
}

func TestNearStoragePlacementAtLeastAsFast(t *testing.T) {
	// §VII-E extension: embedding the engine in the SSD removes the host
	// disk round trip and the PCIe DMA, so throughput must not regress,
	// and the transfer accounting must shrink.
	base := Config{ValueLen: 512, DataBytes: 1 << 30, Backend: BackendFCAE}
	pcie := fill(t, base)
	ns := base
	ns.Placement = PlacementNearStorage
	near := fill(t, ns)
	if near.Throughput < pcie.Throughput*0.99 {
		t.Fatalf("near-storage placement regressed: %.2f vs %.2f", near.Throughput, pcie.Throughput)
	}
	if near.PCIeTime >= pcie.PCIeTime {
		t.Fatalf("near-storage transfer time %v should undercut PCIe %v", near.PCIeTime, pcie.PCIeTime)
	}
}

func TestNearStorageHelpsWhenCompactionBound(t *testing.T) {
	// At large data sizes the PCIe design's compaction pipeline begins to
	// saturate; the near-storage engine should sustain more.
	base := Config{ValueLen: 512, DataBytes: 64 << 30, Backend: BackendFCAE}
	pcie := fill(t, base)
	ns := base
	ns.Placement = PlacementNearStorage
	near := fill(t, ns)
	if near.Throughput < pcie.Throughput {
		t.Fatalf("near-storage should win once staging dominates: %.2f vs %.2f", near.Throughput, pcie.Throughput)
	}
}

func TestTieredSimReducesWriteAmp(t *testing.T) {
	leveled := fill(t, Config{ValueLen: 512, DataBytes: 1 << 30})
	tiered := fill(t, Config{ValueLen: 512, DataBytes: 1 << 30, Store: lsm.Options{TieredRuns: 4}})
	if tiered.WriteAmp >= leveled.WriteAmp {
		t.Fatalf("tiered WA %.2f should undercut leveled %.2f", tiered.WriteAmp, leveled.WriteAmp)
	}
	if tiered.Throughput <= leveled.Throughput {
		t.Fatalf("tiered throughput %.2f should beat leveled %.2f on the CPU backend", tiered.Throughput, leveled.Throughput)
	}
}

func TestTieredSimNineInputCoversMoreJobs(t *testing.T) {
	// Tiered merges carry multi-run fan-in; the 9-input engine absorbs
	// them, the 2-input engine falls back (paper §VII-C).
	two := fill(t, Config{ValueLen: 512, DataBytes: 1 << 30, Store: lsm.Options{TieredRuns: 4},
		Backend: BackendFCAE, Engine: core.DefaultConfig()})
	nine := fill(t, Config{ValueLen: 512, DataBytes: 1 << 30, Store: lsm.Options{TieredRuns: 4},
		Backend: BackendFCAE})
	if two.SWFallbacks <= nine.SWFallbacks {
		t.Fatalf("2-input engine should fall back more: %d vs %d", two.SWFallbacks, nine.SWFallbacks)
	}
	if nine.HWCompactions == 0 {
		t.Fatal("9-input engine took no tiered merges")
	}
}

// TestInvalidEngineFailsLoudly: an engine core.NewEngine refuses is not
// simulated; RunFill panics with the reason.
func TestInvalidEngineFailsLoudly(t *testing.T) {
	eng := core.MultiInputConfig()
	eng.V = 16 // above WIn=8
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "WIn=8 must be >= V=16") {
			t.Fatalf("RunFill on %+v: recovered %v", eng, r)
		}
	}()
	RunFill(Config{ValueLen: 512, DataBytes: 1 << 20, Backend: BackendFCAE, Engine: eng})
}

// BenchmarkSimFill measures how fast the virtual-clock simulation itself
// runs on this machine (simulated GB per wall second), which bounds how
// quickly the 1 TB experiments regenerate.
func BenchmarkSimFill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFill(Config{ValueLen: 512, DataBytes: 1 << 30, Backend: BackendFCAE})
	}
}
