// Command dbbench is a db_bench-style wall-clock benchmark against the
// real store: it measures this Go implementation on the local machine
// (unlike cmd/experiments, which regenerates the paper's numbers through
// the calibrated models).
//
// Usage:
//
//	dbbench [-db DIR] [-benchmarks fillseq,fillrandom,overwrite,readrandom,readseq,deleterandom]
//	        [-num 100000] [-value_size 128] [-key_size 16] [-compression_ratio 0.5]
//	        [-trace out.jsonl] [-metrics] [-json out.json] [store flags]
//
// The store flags (-backend, -engine_n, -engine_v, -compaction-workers,
// -device-channels, -fault-rate, -fault-seed, -arena-bytes) are the ones
// cmd/ycsb and cmd/fcaeserver take; see cmd/internal/storeflags.
// -trace writes one JSON line per compaction (inputs, outputs, pairs,
// modeled kernel/PCIe time, phase spans); -metrics dumps the final
// metrics snapshot as JSON on stdout; -json writes a machine-readable
// result blob (config, per-benchmark ops/s, store stats, dispatch
// routing counters) to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"fcae"
	"fcae/cmd/internal/storeflags"
	"fcae/cmd/internal/target"
	"fcae/internal/workload"
)

// benchResult is one benchmark's row in the -json report.
type benchResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	MicrosPerOp float64 `json:"micros_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	Found       int     `json:"found,omitempty"`
}

// jsonReport is the -json output schema.
type jsonReport struct {
	Config     map[string]any     `json:"config"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Stats      fcae.Stats         `json:"stats"`
	Dispatch   fcae.DispatchStats `json:"dispatch"`
	LevelFiles []int              `json:"level_files"`
}

func main() {
	dir := flag.String("db", "", "database directory (default: a temp dir)")
	benches := flag.String("benchmarks", "fillseq,fillrandom,overwrite,readrandom,readseq,seekrandom,readwhilewriting", "comma-separated benchmark list")
	num := flag.Int("num", 100000, "operations per benchmark")
	valueSize := flag.Int("value_size", 128, "value length in bytes")
	keySize := flag.Int("key_size", 16, "key length in bytes")
	ratio := flag.Float64("compression_ratio", 0.5, "value compressibility")
	store := storeflags.Register(flag.CommandLine)
	tracePath := flag.String("trace", "", "write per-compaction JSONL trace records to this file")
	metrics := flag.Bool("metrics", false, "dump the final metrics snapshot as JSON")
	jsonPath := flag.String("json", "", "write a machine-readable result blob to this file")
	flag.Parse()

	opts, err := store.Options()
	if err != nil {
		fatal(err)
	}
	if *dir == "" {
		d, err := os.MkdirTemp("", "fcae-dbbench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		*dir = d
	}

	var tw *fcae.TraceWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw = fcae.NewTraceWriter(f)
		opts.EventListener = tw
	}
	db, err := fcae.Open(*dir, opts)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	fmt.Printf("fcae dbbench: dir=%s backend=%s num=%d key=%dB value=%dB workers=%d channels=%d fault-rate=%g\n",
		*dir, store.Backend, *num, *keySize, *valueSize, store.Workers, store.Channels, store.FaultRate)

	var results []benchResult
	for _, name := range strings.Split(*benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		res, err := runBench(db, name, *num, *keySize, *valueSize, *ratio)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		results = append(results, res)
	}

	st := db.Stats()
	ds := db.DispatchStats()
	fmt.Printf("\nstats: flushes=%d compactions=%d (hw=%d swFallback=%d trivial=%d)\n",
		st.Flushes, st.Compactions, st.HWCompactions, st.SWFallbacks, st.TrivialMoves)
	fmt.Printf("compaction bytes: read=%d written=%d; modeled kernel=%s pcie=%s; stalls=%s\n",
		st.CompactionRead, st.CompactionWrite, st.KernelTime, st.TransferTime, st.StallTime)
	fmt.Printf("dispatch: device=%d cpu=%d lanes=%v faults=%d timeouts=%d retries=%d fallbacks(fanin=%d budget=%d arena=%d saturated=%d fault=%d) arena-bytes=%d\n",
		ds.DeviceJobs, ds.CPUJobs, ds.LaneJobs, ds.Faults, ds.Timeouts, ds.Retries,
		ds.FallbackFanIn, ds.FallbackBudget, ds.FallbackArena, ds.FallbackSaturated, ds.FallbackFault,
		ds.ArenaBytes)
	if len(ds.ArenaHighWater) > 0 {
		fmt.Printf("arena high-water per channel: %v bytes\n", ds.ArenaHighWater)
	}
	levels := db.LevelFiles()
	fmt.Printf("level files: %v\n", levels)

	if *metrics {
		out, err := db.Metrics().JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n", out)
	}
	if *jsonPath != "" {
		report := jsonReport{
			Config: map[string]any{
				"backend":            store.Backend,
				"num":                *num,
				"key_size":           *keySize,
				"value_size":         *valueSize,
				"compression_ratio":  *ratio,
				"compaction_workers": store.Workers,
				"device_channels":    store.Channels,
				"fault_rate":         store.FaultRate,
				"fault_seed":         store.FaultSeed,
				"arena_bytes":        store.ArenaBytes,
				"benchmarks":         *benches,
			},
			Benchmarks: results,
			Stats:      st,
			Dispatch:   ds,
			LevelFiles: levels[:],
		}
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("json report written to %s\n", *jsonPath)
	}
	if tw != nil {
		if err := tw.Err(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
}

// bench is one db_bench benchmark: the op it issues over uniform keys
// drawn from seed (in order when seed is 0), and the divisor of -num that
// gives its op count (seeks are pricier: seekrandom runs a tenth as many).
// A writerSeed runs a background writer over its own uniform keys while
// the benchmark reads: the contention the paper's offload targets.
type bench struct {
	op               workload.Op
	seed, writerSeed int64
	div              int
}

var benches = map[string]bench{
	"fillseq":          {op: workload.OpUpdate},
	"fillrandom":       {op: workload.OpUpdate, seed: 4711},
	"overwrite":        {op: workload.OpUpdate, seed: 4711},
	"readrandom":       {op: workload.OpRead, seed: 1213},
	"readseq":          {op: workload.OpRead},
	"deleterandom":     {op: workload.OpDelete, seed: 99},
	"seekrandom":       {op: workload.OpScan, seed: 77, div: 10},
	"readwhilewriting": {op: workload.OpRead, seed: 13, writerSeed: 31},
}

func runBench(db *fcae.DB, name string, num, keySize, valueSize int, ratio float64) (benchResult, error) {
	b, ok := benches[name]
	if !ok {
		return benchResult{}, fmt.Errorf("unknown benchmark %q", name)
	}
	n := num / max(b.div, 1)
	t := target.DB{DB: db}
	stop, writer := make(chan struct{}), make(chan error, 1)
	if b.writerSeed == 0 {
		writer <- nil
	} else {
		w := &workload.Stream{Op: workload.OpUpdate, Keys: workload.NewKeyGen(keySize),
			Pick: keySeq(num, b.writerSeed), Values: workload.NewValueGen(valueSize, ratio, 5), Stop: stop}
		go func() { _, err := workload.Run(t, w, math.MaxInt); writer <- err }()
	}
	r, err := workload.Run(t, &workload.Stream{Op: b.op, Keys: workload.NewKeyGen(keySize),
		Pick: keySeq(num, b.seed), Values: workload.NewValueGen(valueSize, ratio, 42), ScanLength: 10}, n)
	close(stop)
	if werr := <-writer; err == nil {
		err = werr
	}
	if err != nil {
		return benchResult{}, err
	}
	res := benchResult{
		Name:        name,
		Ops:         n,
		MicrosPerOp: float64(r.Elapsed.Microseconds()) / float64(n),
		OpsPerSec:   float64(n) / r.Elapsed.Seconds(),
		Found:       r.Found + r.Entries,
	}
	switch {
	case b.op == workload.OpScan:
		fmt.Printf("%-12s : %10.3f micros/op; %8.1f seeks/sec (%d entries)\n",
			name, res.MicrosPerOp, res.OpsPerSec, r.Entries)
	case b.writerSeed != 0:
		fmt.Printf("%-12s : %10.3f micros/op; %8.1f reads/sec (found %d)\n",
			name, res.MicrosPerOp, res.OpsPerSec, r.Found)
	default:
		res.MBPerSec = float64(n*(keySize+valueSize)) / 1e6 / r.Elapsed.Seconds()
		extra := ""
		if b.op == workload.OpRead {
			extra = fmt.Sprintf(" (found %d)", r.Found)
		}
		fmt.Printf("%-12s : %10.3f micros/op; %8.1f ops/sec; %7.1f MB/s%s\n",
			name, res.MicrosPerOp, res.OpsPerSec, res.MBPerSec, extra)
	}
	return res, nil
}

// keySeq draws uniform indices over [0, num) from seed, or 0, 1, 2... if 0.
func keySeq(num int, seed int64) workload.Sequence {
	if seed == 0 {
		return &workload.Sequential{}
	}
	return workload.NewUniform(uint64(num), seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbbench:", err)
	os.Exit(1)
}
