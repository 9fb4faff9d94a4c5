package bench

import (
	"fmt"

	"fcae/internal/core"
	"fcae/internal/lsm"
	"fcae/internal/lsmsim"
	"fcae/internal/workload"
)

// fillPair runs the fill workload on both backends.
func fillPair(cfg lsmsim.Config) (cpu, fcae lsmsim.Result) {
	cpuCfg := cfg
	cpuCfg.Backend = lsmsim.BackendCPU
	cpu = lsmsim.RunFill(cpuCfg)
	fcaeCfg := cfg
	fcaeCfg.Backend = lsmsim.BackendFCAE
	fcae = lsmsim.RunFill(fcaeCfg)
	return cpu, fcae
}

// TableVI reproduces Table VI: random-write throughput across value
// lengths and V, on a 1 GB load. Fig 11 is the same data as ratios.
func TableVI(scale Scale) (tableVI, fig11 *Report) {
	tableVI = &Report{
		ID:     "TableVI",
		Title:  "Write throughput (MB/s) with different value length and V (db_bench, 1 GB)",
		Header: []string{"Lvalue", "LevelDB", "V=8", "V=16", "V=32", "V=64"},
	}
	fig11 = &Report{
		ID:     "Fig11",
		Title:  "Acceleration ratio of LevelDB-FCAE throughput",
		Header: []string{"Lvalue", "V=8", "V=16", "V=32", "V=64"},
	}
	data := scale.bytes(1 << 30)
	for _, lv := range ValueLengths {
		base := lsmsim.Config{ValueLen: lv, DataBytes: data}
		cpu := lsmsim.RunFill(base)
		rowT := []string{fmt.Sprint(lv), f1(cpu.Throughput)}
		rowR := []string{fmt.Sprint(lv)}
		for _, v := range VWidths {
			cfg := base
			cfg.Backend = lsmsim.BackendFCAE
			// The 9-input engine at the read width every V fits under
			// (WIn >= V): the width does not time the pipeline, and N,
			// which decides the fallbacks, stays the default's.
			cfg.Engine = core.Config{N: 9, WIn: 64, V: v}
			r := lsmsim.RunFill(cfg)
			rowT = append(rowT, f1(r.Throughput))
			rowR = append(rowR, f2(r.Throughput/cpu.Throughput))
		}
		tableVI.Rows = append(tableVI.Rows, rowT)
		fig11.Rows = append(fig11.Rows, rowR)
	}
	tableVI.Notes = append(tableVI.Notes,
		"paper LevelDB: 2.4 2.9 2.5 2.8 2.3 2.3; paper V=64: 5.4 7.6 7.2 9.3 11.6 14.4 (max speedup 6.4x)")
	return tableVI, fig11
}

// Fig10 reproduces the 2-input data-size sweep (0.2-2 GB, Lvalue=512,
// V=16).
func Fig10(scale Scale) *Report {
	r := &Report{
		ID:     "Fig10",
		Title:  "Write throughput vs data size (N=2, Lvalue=512, V=16)",
		Header: []string{"GB", "LevelDB", "LevelDB-FCAE", "speedup"},
	}
	for _, gb := range []float64{0.2, 0.5, 1.0, 1.5, 2.0} {
		cfg := lsmsim.Config{
			ValueLen:  512,
			DataBytes: scale.bytes(int64(gb * (1 << 30))),
			Engine:    core.DefaultConfig(), // 2-input
		}
		cpu, fcae := fillPair(cfg)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.1f", gb), f1(cpu.Throughput), f1(fcae.Throughput),
			f2(fcae.Throughput / cpu.Throughput),
		})
	}
	r.Notes = append(r.Notes,
		"paper: LevelDB decreases dramatically with size; LevelDB-FCAE degrades gently (L0 merges fall back to software at N=2)")
	return r
}

// Fig14Sizes is the multi-input data-size sweep; the full paper range runs
// to 1024 GB.
var Fig14Sizes = []float64{0.2, 0.4, 0.8, 1, 2, 4, 8, 16, 64, 256, 1024}

// Fig14 reproduces the multi-input size sweep and Table VIII's PCIe
// transfer percentages, which come from the same runs.
func Fig14(scale Scale, maxGB float64) (fig14, tableVIII *Report) {
	fig14 = &Report{
		ID:     "Fig14",
		Title:  "Write throughput vs data size (9-input FCAE, Lvalue=512)",
		Header: []string{"GB", "LevelDB", "LevelDB-FCAE", "speedup"},
	}
	tableVIII = &Report{
		ID:     "TableVIII",
		Title:  "PCIe transfer percentage of system execution time",
		Header: []string{"GB", "transfer%"},
	}
	for _, gb := range Fig14Sizes {
		if gb > maxGB {
			break
		}
		cfg := lsmsim.Config{ValueLen: 512, DataBytes: scale.bytes(int64(gb * (1 << 30)))}
		cpu, fcae := fillPair(cfg)
		fig14.Rows = append(fig14.Rows, []string{
			fmt.Sprintf("%.1f", gb), f2(cpu.Throughput), f2(fcae.Throughput),
			f2(fcae.Throughput / cpu.Throughput),
		})
		pct := 0.0
		if fcae.Elapsed > 0 {
			pct = float64(fcae.PCIeTime) / float64(fcae.Elapsed) * 100
		}
		tableVIII.Rows = append(tableVIII.Rows, []string{fmt.Sprintf("%.1f", gb), f1(pct)})
	}
	fig14.Notes = append(fig14.Notes, "paper: speedup settles around 2.5x at very large sizes")
	tableVIII.Notes = append(tableVIII.Notes, "paper: 9% at 0.2 GB down to <1% at 1 TB")
	return fig14, tableVIII
}

// Fig15 reproduces the sensitivity study: key length, value length, block
// size and leveling ratio (paper Fig 15 a-d).
func Fig15(scale Scale) *Report {
	r := &Report{
		ID:     "Fig15",
		Title:  "Sensitivity of the speedup to store settings (1 GB fill)",
		Header: []string{"param", "value", "LevelDB", "LevelDB-FCAE", "speedup"},
	}
	data := scale.bytes(1 << 30)
	add := func(param string, value string, cfg lsmsim.Config) {
		cfg.DataBytes = data
		cpu, fcae := fillPair(cfg)
		r.Rows = append(r.Rows, []string{
			param, value, f1(cpu.Throughput), f1(fcae.Throughput),
			f2(fcae.Throughput / cpu.Throughput),
		})
	}
	for _, kl := range []int{16, 32, 64, 128, 256} {
		add("keyLen", fmt.Sprint(kl), lsmsim.Config{KeyLen: kl, ValueLen: 128})
	}
	for _, vl := range []int{64, 256, 1024, 2048} {
		add("valueLen", fmt.Sprint(vl), lsmsim.Config{ValueLen: vl})
	}
	for _, bs := range []int{2 << 10, 4 << 10, 64 << 10, 1 << 20} {
		add("blockKB", fmt.Sprint(bs>>10), lsmsim.Config{ValueLen: 128, Store: lsm.Options{BlockSize: bs}})
	}
	for _, ratio := range []int{4, 8, 10, 16} {
		add("levelRatio", fmt.Sprint(ratio), lsmsim.Config{ValueLen: 128, Store: lsm.Options{LevelRatio: ratio}})
	}
	r.Notes = append(r.Notes,
		"paper: speedup falls as key length grows, rises with value length, is flat in block size (~2.4x), and falls as the leveling ratio grows")
	return r
}

// Fig16 reproduces the YCSB comparison (Load + workloads A-F).
func Fig16(scale Scale) *Report {
	r := &Report{
		ID:     "Fig16",
		Title:  "YCSB throughput (kops/s), 16 B keys + 1 KiB values",
		Header: []string{"workload", "LevelDB", "LevelDB-FCAE", "speedup"},
	}
	load := scale.bytes(20 << 30)
	ops := load / 1040 // paper: operation count equals the record count
	for _, w := range workload.YCSB {
		cfg := lsmsim.Config{ValueLen: 1024}
		cpu := lsmsim.RunYCSB(cfg, w, load, ops)
		cfg.Backend = lsmsim.BackendFCAE
		fcae := lsmsim.RunYCSB(cfg, w, load, ops)
		r.Rows = append(r.Rows, []string{w.Name, f1(cpu), f1(fcae), f2(fcae / cpu)})
	}
	r.Notes = append(r.Notes,
		"paper: LevelDB-FCAE wins every workload; speedup grows with write ratio, up to 2.2x on Load; read-only C is unchanged")
	return r
}

// ScheduleAblation quantifies the paper's concurrent-flush benefit
// (§VI-A). The benefit is largest where merges are long — the CPU
// baseline — so the table shows both: the baseline with flushes given
// their own core (the schedule FCAE gets for free), and the FCAE backend
// with flushes forced to wait for the running engine job.
func ScheduleAblation(scale Scale) *Report {
	r := &Report{
		ID:    "AblationSchedule",
		Title: "Flush/compaction overlap ablation (1 GB fill)",
		Header: []string{"Lvalue", "LevelDB", "LevelDB+overlap", "benefit",
			"FCAE", "FCAE serialized", "benefit"},
	}
	data := scale.bytes(1 << 30)
	for _, lv := range []int{128, 512, 2048} {
		cpuSer := lsmsim.RunFill(lsmsim.Config{ValueLen: lv, DataBytes: data})
		cpuOver := lsmsim.RunFill(lsmsim.Config{ValueLen: lv, DataBytes: data, OverlapCPUFlush: true})
		fOver := lsmsim.RunFill(lsmsim.Config{ValueLen: lv, DataBytes: data, Backend: lsmsim.BackendFCAE})
		fSer := lsmsim.RunFill(lsmsim.Config{ValueLen: lv, DataBytes: data, Backend: lsmsim.BackendFCAE, SerializeFlush: true})
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(lv),
			f1(cpuSer.Throughput), f1(cpuOver.Throughput), f2(cpuOver.Throughput / cpuSer.Throughput),
			f1(fOver.Throughput), f1(fSer.Throughput), f2(fOver.Throughput / fSer.Throughput),
		})
	}
	r.Notes = append(r.Notes,
		"paper §VI-A: overlapping flushes with merges pays when merges are long (software); with the engine's short merges the schedule barely matters")
	return r
}

// NearStorage explores the paper's §VII-E future-work direction: the
// engine embedded in the SSD controller versus the evaluated PCIe card,
// across data sizes.
func NearStorage(scale Scale) *Report {
	r := &Report{
		ID:     "NearStorage",
		Title:  "Engine placement: PCIe card vs near-storage (§VII-E extension)",
		Header: []string{"GB", "LevelDB", "FCAE-PCIe", "FCAE-near-storage", "near/pcie"},
	}
	for _, gb := range []float64{16, 256, 1024} {
		data := scale.bytes(int64(gb * (1 << 30)))
		cpu := lsmsim.RunFill(lsmsim.Config{ValueLen: 512, DataBytes: data})
		pcie := lsmsim.RunFill(lsmsim.Config{ValueLen: 512, DataBytes: data, Backend: lsmsim.BackendFCAE})
		near := lsmsim.RunFill(lsmsim.Config{ValueLen: 512, DataBytes: data, Backend: lsmsim.BackendFCAE,
			Placement: lsmsim.PlacementNearStorage})
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", gb), f1(cpu.Throughput), f1(pcie.Throughput), f1(near.Throughput),
			f2(near.Throughput / pcie.Throughput),
		})
	}
	r.Notes = append(r.Notes,
		"paper §VII-E: near-storage 'can fully utilize the internal bandwidth of SSD, so that the redundant data transfer is minimized'")
	return r
}

// TieredSim compares leveled and tiered (lazy) compaction end to end on
// both backends — the §VII-C scenario: tiered merges carry multi-run
// fan-in, so the 9-input engine covers them while a 2-input engine falls
// back to software.
func TieredSim(scale Scale) *Report {
	r := &Report{
		ID:    "Tiered",
		Title: "Leveled vs tiered compaction (1 GB fill, Lvalue=512)",
		Header: []string{"scheme", "backend", "MB/s", "WA", "hwJobs",
			"swFallbacks"},
	}
	data := scale.bytes(1 << 30)
	row := func(scheme string, cfg lsmsim.Config) {
		res := lsmsim.RunFill(cfg)
		r.Rows = append(r.Rows, []string{
			scheme, cfg.Backend.String(), f1(res.Throughput), f1(res.WriteAmp),
			fmt.Sprint(res.HWCompactions), fmt.Sprint(res.SWFallbacks),
		})
	}
	row("leveled", lsmsim.Config{ValueLen: 512, DataBytes: data})
	row("leveled", lsmsim.Config{ValueLen: 512, DataBytes: data, Backend: lsmsim.BackendFCAE})
	row("tiered", lsmsim.Config{ValueLen: 512, DataBytes: data, Store: lsm.Options{TieredRuns: 4}})
	row("tiered-2in", lsmsim.Config{ValueLen: 512, DataBytes: data, Store: lsm.Options{TieredRuns: 4},
		Backend: lsmsim.BackendFCAE, Engine: core.DefaultConfig()})
	row("tiered-9in", lsmsim.Config{ValueLen: 512, DataBytes: data, Store: lsm.Options{TieredRuns: 4},
		Backend: lsmsim.BackendFCAE})
	r.Notes = append(r.Notes,
		"paper §VII-C: lazy compaction (SifrDB/PebblesDB) needs N>2; only the 9-input engine keeps tiered merges in hardware, all but those over its staging-arena input budget")
	return r
}

// An Experiment regenerates the reports named by IDs, which is what
// cmd/experiments -run selects by; maxGB bounds the Fig 14 sweep.
type Experiment struct {
	IDs []string
	Run func(scale Scale, maxGB float64) []*Report
}

// Experiments is the one list of what the repo regenerates, in the order
// cmd/experiments prints it and testdata/quick.csv pins it.
var Experiments = []Experiment{
	{[]string{"TableV", "Fig9"}, func(s Scale, _ float64) []*Report { return pair(TableV(s)) }},
	{[]string{"TableVI", "Fig11"}, func(s Scale, _ float64) []*Report { return pair(TableVI(s)) }},
	{[]string{"Fig10"}, one(Fig10)},
	{[]string{"TableVII"}, func(Scale, float64) []*Report { return []*Report{TableVII()} }},
	{[]string{"Fig12", "Fig13"}, func(s Scale, _ float64) []*Report { return pair(Fig12And13(s)) }},
	{[]string{"Fig14", "TableVIII"}, func(s Scale, maxGB float64) []*Report { return pair(Fig14(s, maxGB)) }},
	{[]string{"Fig15"}, one(Fig15)},
	{[]string{"Fig16"}, one(Fig16)},
	{[]string{"Ablation"}, one(Ablations)},
	{[]string{"AblationSchedule"}, one(ScheduleAblation)},
	{[]string{"NearStorage"}, one(NearStorage)},
	{[]string{"StageUtil"}, one(func(s Scale) *Report { return StageUtilization(s, core.DefaultConfig()) })},
	{[]string{"Tiered"}, one(TieredSim)},
}

func pair(a, b *Report) []*Report { return []*Report{a, b} }

func one(f func(Scale) *Report) func(Scale, float64) []*Report {
	return func(s Scale, _ float64) []*Report { return []*Report{f(s)} }
}
