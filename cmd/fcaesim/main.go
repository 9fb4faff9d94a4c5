// Command fcaesim runs the FCAE engine simulator standalone: it builds
// synthetic input SSTables, compacts them on the engine and on the CPU
// reference executor, verifies the outputs match, and prints the modeled
// speeds — a one-shot view of the paper's compaction-speed experiment.
//
// Usage:
//
//	fcaesim [-n 2] [-v 16] [-win 64] [-value_size 512] [-mb 16]
//	        [-no-kv-separation] [-no-index-separation]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/keys"
	"fcae/internal/model"
	"fcae/internal/sstable"
)

type memEnv struct {
	next  uint64
	files map[uint64]*bytes.Buffer
}

type bufCloser struct{ *bytes.Buffer }

func (bufCloser) Close() error { return nil }

func (e *memEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	b := &bytes.Buffer{}
	e.files[e.next] = b
	return e.next, bufCloser{b}, nil
}

func main() {
	n := flag.Int("n", 2, "engine decoder lanes (N)")
	v := flag.Int("v", 16, "value lane width V (bytes/cycle)")
	win := flag.Int("win", 64, "AXI read width W_in (bytes/cycle)")
	valueSize := flag.Int("value_size", 512, "value length")
	mb := flag.Int("mb", 16, "total input size in MiB")
	noKV := flag.Bool("no-kv-separation", false, "disable key-value separation (§V-C ablation)")
	noIdx := flag.Bool("no-index-separation", false, "disable index/data separation (§V-B ablation)")
	tracePath := flag.String("trace", "", "write a per-selection pipeline trace CSV to this file")
	traceLimit := flag.Int("trace-limit", 1000, "number of selections to trace")
	flag.Parse()

	cfg := core.Config{N: *n, V: *v, WIn: *win, NoKeyValueSeparation: *noKV, NoIndexDataSeparation: *noIdx}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fcaesim:", err)
		os.Exit(1)
	}
	u := cfg.Resources()
	fmt.Printf("engine: N=%d V=%d WIn=%d WOut=%d @%.0fMHz  resources BRAM=%.1f%% FF=%.1f%% LUT=%.1f%% fits=%v\n",
		cfg.N, cfg.V, cfg.WIn, core.WOut, core.ClockHz/1e6, u.BRAM, u.FF, u.LUT, cfg.Fits())

	// Build N sorted runs of incompressible data.
	rng := rand.New(rand.NewSource(1))
	perRun := (*mb << 20) / *n / (*valueSize + 30)
	job := &compaction.Job{
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        sstable.Options{Compression: sstable.SnappyCompression},
		MaxOutputBytes:   2 << 20,
	}
	for r := 0; r < *n; r++ {
		t := core.BuildRun(perRun, *valueSize, uint64(1+r*10_000_000), func(i int) []byte {
			return fmt.Appendf(nil, "k%015d", i*(3+2*r))
		}, rng)
		t.Num = uint64(r + 1)
		job.Runs = append(job.Runs, []compaction.Table{t})
	}
	fmt.Printf("job: %d runs, %.1f MiB input, value=%dB\n", job.NumRuns(), float64(job.InputBytes())/(1<<20), *valueSize)

	// Engine path.
	exec, err := core.NewExecutor(cfg)
	if err != nil {
		fatal(err)
	}
	fpgaEnv := &memEnv{files: map[uint64]*bytes.Buffer{}}
	fres, err := exec.Compact(job, fpgaEnv)
	if err != nil {
		fatal(err)
	}
	speed := float64(job.InputBytes()) / fres.Stats.KernelTime.Seconds() / 1e6
	fmt.Printf("FCAE : kernel=%v transfer=%v pairs=%d dropped=%d outputs=%d  speed=%.1f MB/s\n",
		fres.Stats.KernelTime, fres.Stats.TransferTime, fres.Stats.PairsIn, fres.Stats.PairsDropped, len(fres.Outputs), speed)

	// CPU reference path + modeled baseline speed.
	cpuEnv := &memEnv{files: map[uint64]*bytes.Buffer{}}
	cres, err := compaction.CPU{}.Compact(job, cpuEnv)
	if err != nil {
		fatal(err)
	}
	pairTime := model.CPUPairTime(16+8, *valueSize, job.NumRuns())
	cpuSpeed := float64(job.InputBytes()) / (float64(cres.Stats.PairsIn) * pairTime.Seconds()) / 1e6
	fmt.Printf("CPU  : modeled speed=%.1f MB/s (i7-8700K model, %d-way merge)\n", cpuSpeed, job.NumRuns())
	fmt.Printf("accel: %.1fx\n", speed/cpuSpeed)

	// Verify the engine lane wrote the CPU lane's files, byte for byte.
	if cres.Stats.PairsOut != fres.Stats.PairsOut {
		fatal(fmt.Errorf("pair counts diverge: cpu=%d fcae=%d", cres.Stats.PairsOut, fres.Stats.PairsOut))
	}
	if !sameFiles(cpuEnv, cres, fpgaEnv, fres) {
		fatal(fmt.Errorf("outputs diverge"))
	}
	fmt.Println("verify: FCAE output identical to CPU output")

	// Per-stage utilization (the §V-D bottleneck analysis).
	eng, err := core.NewEngine(cfg)
	if err != nil {
		fatal(err)
	}
	params := core.Params{Compress: true}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		params.TraceWriter = tf
		params.TraceLimit = *traceLimit
	}
	er, err := eng.RunJob(job, params)
	if err != nil {
		fatal(err)
	}
	st := er.Stats
	pct := func(busy float64) float64 { return busy / st.Cycles * 100 }
	fmt.Printf("stages: decoder %.1f%%  comparer %.1f%%  transfer %.1f%%  encoder %.1f%%  (bottleneck: %s)\n",
		pct(st.DecoderBusy), pct(st.ComparerBusy), pct(st.TransferBusy), pct(st.EncoderBusy),
		st.Bottleneck())
	if *tracePath != "" {
		fmt.Printf("trace: wrote up to %d selections to %s\n", *traceLimit, *tracePath)
	}
}

// sameFiles reports whether the two results hold the same table files.
func sameFiles(ea *memEnv, ra *compaction.Result, eb *memEnv, rb *compaction.Result) bool {
	if len(ra.Outputs) != len(rb.Outputs) {
		return false
	}
	for i := range ra.Outputs {
		if !bytes.Equal(ea.files[ra.Outputs[i].Num].Bytes(), eb.files[rb.Outputs[i].Num].Bytes()) {
			return false
		}
	}
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fcaesim:", err)
	os.Exit(1)
}
