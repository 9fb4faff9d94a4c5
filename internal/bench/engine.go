package bench

import (
	"fmt"
	"math/rand"

	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/keys"
	"fcae/internal/model"
	"fcae/internal/sstable"
)

// runKeys is the key of entry i of a run in the paper's input shape
// (16-byte keys, Table IV): prefix, then i*stride in 15 digits.
func runKeys(prefix byte, stride int) func(i int) []byte {
	return func(i int) []byte { return fmt.Appendf(nil, "%c%015d", prefix, i*stride) }
}

// speedJob builds a 2-run compaction job shaped like an L_i -> L_{i+1}
// merge (the lower level ~8x larger) totalling roughly totalBytes of
// payload.
func speedJob(valueLen int, totalBytes int64, runs int, rng *rand.Rand) *compaction.Job {
	perRun := int(totalBytes) / (valueLen + 30) / runs
	if perRun < 200 {
		perRun = 200
	}
	job := &compaction.Job{
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        sstable.Options{Compression: sstable.SnappyCompression},
		MaxOutputBytes:   2 << 20,
	}
	if runs == 2 {
		// Upper input 1/9 of the job, lower input 8/9 (typical leveled merge).
		nUp := perRun * 2 / 9 * runs / 2
		if nUp < 100 {
			nUp = 100
		}
		nLow := perRun*runs - nUp
		job.Runs = append(job.Runs,
			[]compaction.Table{core.BuildRun(nUp, valueLen, 1, runKeys('a', 16), rng)},
			[]compaction.Table{core.BuildRun(nLow, valueLen, 1_000_000, runKeys('a', 2), rng)})
		return job
	}
	// Multi-input jobs: runs cover successive key ranges with a small
	// overlap at the seams, so consecutive selections drain one decoder
	// lane at a time. This matches the paper's Fig 12 observation that the
	// 9-input engine stays Data-Block-Decoder-bound at long values ("the
	// period of the latter module is almost the same for N=2 and N=9");
	// uniformly interleaved runs would instead let all N decoders work in
	// parallel and the Comparer would bound throughput.
	for r := 0; r < runs; r++ {
		job.Runs = append(job.Runs,
			[]compaction.Table{core.BuildRun(perRun, valueLen, uint64(1+r*10_000_000), runKeys(byte('a'+r), 3), rng)})
	}
	return job
}

// engineStats runs the engine on job and returns the run's Stats.
func engineStats(cfg core.Config, job *compaction.Job) core.Stats {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	res, err := eng.RunJob(job, core.Params{Compress: true})
	if err != nil {
		panic(err)
	}
	return res.Stats
}

// engineSpeed runs the engine on job and returns the paper's
// compaction-speed metric: input SSTable bytes / kernel time, in MB/s.
func engineSpeed(cfg core.Config, job *compaction.Job) float64 {
	return float64(job.InputBytes()) / engineStats(cfg, job).KernelTime().Seconds() / 1e6
}

// cpuSpeed returns the modeled CPU baseline compaction speed (Table V's
// CPU column) for the same job shape.
func cpuSpeed(valueLen int, job *compaction.Job) float64 {
	// Pairs from payload size: keys are 16 bytes plus the 8-byte trailer.
	pairs := job.InputBytes() / int64(valueLen+30)
	t := model.CPUPairTime(24, valueLen, job.NumRuns())
	return float64(job.InputBytes()) / (float64(pairs) * t.Seconds()) / 1e6
}

// ValueLengths is the paper's sweep (Tables V and VI).
var ValueLengths = []int{64, 128, 256, 512, 1024, 2048}

// VWidths is the paper's value-lane sweep.
var VWidths = []int{8, 16, 32, 64}

// TableV reproduces Table V: 2-input compaction speed, CPU vs FCAE across
// value lengths and V. Fig 9 is the same data as acceleration ratios, so
// both are emitted.
func TableV(scale Scale) (tableV, fig9 *Report) {
	tableV = &Report{
		ID:     "TableV",
		Title:  "Compaction speed (MB/s) with different value length and V (N=2)",
		Header: []string{"Lvalue", "CPU", "V=8", "V=16", "V=32", "V=64"},
	}
	fig9 = &Report{
		ID:     "Fig9",
		Title:  "Acceleration ratio of FCAE compaction speed (N=2)",
		Header: []string{"Lvalue", "V=8", "V=16", "V=32", "V=64"},
	}
	rng := rand.New(rand.NewSource(1))
	jobBytes := scale.bytes(18 << 20)
	for _, lv := range ValueLengths {
		job := speedJob(lv, jobBytes, 2, rng)
		cpu := cpuSpeed(lv, job)
		rowV := []string{fmt.Sprint(lv), f1(cpu)}
		rowR := []string{fmt.Sprint(lv)}
		for _, v := range VWidths {
			cfg := core.DefaultConfig()
			cfg.V = v
			speed := engineSpeed(cfg, job)
			rowV = append(rowV, f1(speed))
			rowR = append(rowR, f1(speed/cpu))
		}
		tableV.Rows = append(tableV.Rows, rowV)
		fig9.Rows = append(fig9.Rows, rowR)
	}
	tableV.Notes = append(tableV.Notes,
		"paper CPU: 5.3 6.9 9.0 12.2 14.8 13.3; paper V=64: 175.8 291.7 524.9 745.4 1026.3 1205.6")
	fig9.Notes = append(fig9.Notes, "paper peak ratio ~90x at V=64, Lvalue=2048")
	return tableV, fig9
}

// Fig12And13 reproduce the 2-input vs 9-input comparison at V=8 (paper
// §VII-C1): absolute speeds (Fig 12) and acceleration over the CPU
// baseline of matching merge width (Fig 13).
func Fig12And13(scale Scale) (fig12, fig13 *Report) {
	fig12 = &Report{
		ID:     "Fig12",
		Title:  "Compaction speed (MB/s): 2-input vs 9-input FCAE (V=8)",
		Header: []string{"Lvalue", "2-input", "9-input"},
	}
	fig13 = &Report{
		ID:     "Fig13",
		Title:  "Acceleration ratio vs CPU baseline: 2-input vs 9-input",
		Header: []string{"Lvalue", "2-input", "9-input"},
	}
	rng := rand.New(rand.NewSource(2))
	jobBytes := scale.bytes(18 << 20)
	for _, lv := range ValueLengths {
		job2 := speedJob(lv, jobBytes, 2, rng)
		job9 := speedJob(lv, jobBytes, 9, rng)

		cfg2 := core.DefaultConfig()
		cfg2.V = 8
		s2 := engineSpeed(cfg2, job2)
		cfg9 := core.MultiInputConfig() // N=9, V=8, WIn=8
		s9 := engineSpeed(cfg9, job9)

		cpu2 := cpuSpeed(lv, job2)
		cpu9 := cpuSpeed(lv, job9)

		fig12.Rows = append(fig12.Rows, []string{fmt.Sprint(lv), f1(s2), f1(s9)})
		fig13.Rows = append(fig13.Rows, []string{fmt.Sprint(lv), f1(s2 / cpu2), f1(s9 / cpu9)})
	}
	fig12.Notes = append(fig12.Notes,
		"paper: 9-input slower at short values (Comparer-bound), gap closes at long values (Decoder-bound)")
	fig13.Notes = append(fig13.Notes, "paper peak: 92.0x for the 9-input engine")
	return fig12, fig13
}

// TableVII reproduces the resource utilization table from the engine's
// resource model.
func TableVII() *Report {
	r := &Report{
		ID:     "TableVII",
		Title:  "Resource utilization for different FPGA configurations (%)",
		Header: []string{"N", "WIn", "V", "BRAM", "FF", "LUT", "fits"},
	}
	configs := []struct{ n, win, v int }{
		{2, 64, 16}, {2, 64, 8}, {9, 64, 8}, {9, 16, 16}, {9, 16, 8}, {9, 8, 8},
	}
	for _, c := range configs {
		cfg := core.Config{N: c.n, WIn: c.win, V: c.v}
		u := cfg.Resources()
		fits := "yes"
		if !cfg.Fits() {
			fits = "no"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(c.n), fmt.Sprint(c.win), fmt.Sprint(c.v),
			f1(u.BRAM), f1(u.FF), f1(u.LUT), fits,
		})
	}
	r.Notes = append(r.Notes, "paper: 18/10/72, 17/9/63, 35/27/206, 30/18/125, 26/16/103, 25/14/84")
	return r
}

// StageUtilization reports each pipeline stage's busy share of the kernel
// time across value lengths — the measured counterpart of the paper's
// §V-D bottleneck analysis (Decoder-bound vs Comparer-bound).
func StageUtilization(scale Scale, cfg core.Config) *Report {
	r := &Report{
		ID:    "StageUtil",
		Title: fmt.Sprintf("Pipeline stage utilization (N=%d, V=%d)", cfg.N, cfg.V),
		Header: []string{"Lvalue", "decoder%", "comparer%", "transfer%", "encoder%",
			"bottleneck"},
	}
	rng := rand.New(rand.NewSource(4))
	jobBytes := scale.bytes(8 << 20)
	for _, lv := range ValueLengths {
		st := engineStats(cfg, speedJob(lv, jobBytes, 2, rng))
		pct := func(busy float64) string {
			return f1(busy / st.Cycles * 100)
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(lv),
			pct(st.DecoderBusy), pct(st.ComparerBusy),
			pct(st.TransferBusy), pct(st.EncoderBusy),
			st.Bottleneck(),
		})
	}
	r.Notes = append(r.Notes,
		"paper §V-D1: the bottleneck moves from the Comparer to the Data Block Decoder as L_value grows")
	return r
}

// Ablations quantifies the paper's two pipeline optimizations by running
// the same job with each disabled (DESIGN.md ablation benches 1-2).
func Ablations(scale Scale) *Report {
	r := &Report{
		ID:     "Ablation",
		Title:  "Pipeline optimization ablations (engine speed, MB/s)",
		Header: []string{"Lvalue", "full", "no KV separation", "no index/data separation"},
	}
	rng := rand.New(rand.NewSource(3))
	jobBytes := scale.bytes(8 << 20)
	for _, lv := range []int{128, 512, 2048} {
		job := speedJob(lv, jobBytes, 2, rng)
		full := engineSpeed(core.DefaultConfig(), job)
		noKV := core.DefaultConfig()
		noKV.NoKeyValueSeparation = true
		noIdx := core.DefaultConfig()
		noIdx.NoIndexDataSeparation = true
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(lv), f1(full), f1(engineSpeed(noKV, job)), f1(engineSpeed(noIdx, job)),
		})
	}
	r.Notes = append(r.Notes, "key-value separation dominates at long values (paper §V-C)")
	return r
}
