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
	"os"
	"strings"
	"time"

	"fcae"
	"fcae/cmd/internal/storeflags"
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
	fmt.Printf("dispatch: device=%d cpu=%d lanes=%v faults=%d timeouts=%d retries=%d fallbacks(fanin=%d budget=%d arena=%d saturated=%d fault=%d) promotions=%d arena-bytes=%d\n",
		ds.DeviceJobs, ds.CPUJobs, ds.LaneJobs, ds.Faults, ds.Timeouts, ds.Retries,
		ds.FallbackFanIn, ds.FallbackBudget, ds.FallbackArena, ds.FallbackSaturated, ds.FallbackFault,
		ds.AgingPromotions, ds.ArenaBytes)
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

func runBench(db *fcae.DB, name string, num, keySize, valueSize int, ratio float64) (benchResult, error) {
	keys := workload.NewKeyGen(keySize)
	values := workload.NewValueGen(valueSize, ratio, 42)

	var seq workload.Sequence
	write := true
	switch name {
	case "fillseq":
		seq = &workload.Sequential{}
	case "fillrandom", "overwrite":
		seq = workload.NewUniform(uint64(num), 4711)
	case "readrandom":
		seq, write = workload.NewUniform(uint64(num), 1213), false
	case "readseq":
		seq, write = &workload.Sequential{}, false
	case "deleterandom":
		seq = workload.NewUniform(uint64(num), 99)
	case "seekrandom":
		return runSeekRandom(db, num, keySize)
	case "readwhilewriting":
		return runReadWhileWriting(db, num, keySize, valueSize, ratio)
	default:
		return benchResult{}, fmt.Errorf("unknown benchmark %q", name)
	}

	start := time.Now()
	found := 0
	for i := 0; i < num; i++ {
		k := keys.Key(seq.Next())
		switch {
		case name == "deleterandom":
			if err := db.Delete(k); err != nil {
				return benchResult{}, err
			}
		case write:
			if err := db.Put(k, values.Value()); err != nil {
				return benchResult{}, err
			}
		default:
			if _, err := db.Get(k); err == nil {
				found++
			} else if err != fcae.ErrNotFound {
				return benchResult{}, err
			}
		}
	}
	elapsed := time.Since(start)
	res := benchResult{
		Name:        name,
		Ops:         num,
		MicrosPerOp: float64(elapsed.Microseconds()) / float64(num),
		OpsPerSec:   float64(num) / elapsed.Seconds(),
		MBPerSec:    float64(num*(keySize+valueSize)) / 1e6 / elapsed.Seconds(),
		Found:       found,
	}
	extra := ""
	if !write {
		extra = fmt.Sprintf(" (found %d)", found)
	}
	fmt.Printf("%-12s : %10.3f micros/op; %8.1f ops/sec; %7.1f MB/s%s\n",
		name, res.MicrosPerOp, res.OpsPerSec, res.MBPerSec, extra)
	return res, nil
}

// runSeekRandom measures iterator seek + short scan latency.
func runSeekRandom(db *fcae.DB, num, keySize int) (benchResult, error) {
	keys := workload.NewKeyGen(keySize)
	seq := workload.NewUniform(uint64(num), 77)
	start := time.Now()
	entries := 0
	for i := 0; i < num/10; i++ { // seeks are pricier; 10% of the op count
		it, err := db.NewIterator()
		if err != nil {
			return benchResult{}, err
		}
		for ok, n := it.Seek(keys.Key(seq.Next())), 0; ok && n < 10; ok, n = it.Next(), n+1 {
			entries++
		}
		if err := it.Close(); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	res := benchResult{
		Name:        "seekrandom",
		Ops:         num / 10,
		MicrosPerOp: float64(elapsed.Microseconds()) / float64(num/10),
		OpsPerSec:   float64(num/10) / elapsed.Seconds(),
		Found:       entries,
	}
	fmt.Printf("%-12s : %10.3f micros/op; %8.1f seeks/sec (%d entries)\n",
		"seekrandom", res.MicrosPerOp, res.OpsPerSec, entries)
	return res, nil
}

// runReadWhileWriting measures read latency with one writer running, the
// contention scenario the paper's offload targets.
func runReadWhileWriting(db *fcae.DB, num, keySize, valueSize int, ratio float64) (benchResult, error) {
	keys := workload.NewKeyGen(keySize)
	values := workload.NewValueGen(valueSize, ratio, 5)
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		wkeys := workload.NewKeyGen(keySize)
		wseq := workload.NewUniform(uint64(num), 31)
		for {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			if err := db.Put(wkeys.Key(wseq.Next()), values.Value()); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	seq := workload.NewUniform(uint64(num), 13)
	start := time.Now()
	found := 0
	for i := 0; i < num; i++ {
		if _, err := db.Get(keys.Key(seq.Next())); err == nil {
			found++
		} else if err != fcae.ErrNotFound {
			close(stop)
			<-writerErr
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	close(stop)
	if err := <-writerErr; err != nil {
		return benchResult{}, err
	}
	res := benchResult{
		Name:        "readwhilewriting",
		Ops:         num,
		MicrosPerOp: float64(elapsed.Microseconds()) / float64(num),
		OpsPerSec:   float64(num) / elapsed.Seconds(),
		Found:       found,
	}
	fmt.Printf("%-12s : %10.3f micros/op; %8.1f reads/sec (found %d)\n",
		"readwhilewriting", res.MicrosPerOp, res.OpsPerSec, found)
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbbench:", err)
	os.Exit(1)
}
