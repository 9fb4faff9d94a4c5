// Command benchmark is the repository's benchmark: five named workloads
// over the wire, store and compaction paths, each printing end-to-end
// metrics a user would see or, traced, per-layer metrics measured from
// outside the program. See README.md beside this file.
//
//	bash benchmark/run.sh --workload wire-mixed --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh [-runs N] [-trace] [-out report.json]   # all five, one child process each
//	bash benchmark/run.sh compare old.json new.json
//	bash benchmark/run.sh -smoke                                   # all five at ~1 % scale, in process
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to the
// directory it is run from (the root of a checkout).
const buildDir = ".bench_build"

const benchmarkFileName = "BENCHMARK.json"

// runConfig is what one workload run is told.
type runConfig struct {
	seed        int64
	seconds     float64
	trace       bool
	setupReps   int
	setupBudget time.Duration // keep repeating a cheap set-up until this much was spent on it
	probeTime   time.Duration // how long each layer probe loops
	workDir     string        // data directories are made under it and removed
	outDir      string        // trace files go here
}

func (c runConfig) tracePath(workload string) string {
	return filepath.Join(c.outDir, "trace-"+workload+".jsonl")
}

// maxSetupReps caps how often a cheap set-up is repeated.
const maxSetupReps = 45

// repeatSetup runs once, which sets the workload up from nothing and
// returns how long that took, at least cfg.setupReps times and until
// cfg.setupBudget has been spent on it, and returns the median: a set-up
// of milliseconds is repeated often enough for its median to hold still.
// once releases the previous set-up before making the next; the last one
// is the one the run measures.
func repeatSetup(cfg runConfig, once func() (time.Duration, error)) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < cfg.setupReps || (total < cfg.setupBudget && len(times) < maxSetupReps) {
		took, err := once()
		if err != nil {
			return 0, err
		}
		times = append(times, took.Seconds())
		total += took
	}
	return median(times), nil
}

// finishTrace ends a traced run: the layer probes, then the spans written
// out and counted. It does nothing for an untraced run (tr == nil).
func finishTrace(m *measured, tr *tracer, codec *valueCodec, valueSize int, cfg runConfig, workload string) error {
	if tr == nil {
		return nil
	}
	runProbes(m, codec, valueSize, cfg)
	n, err := tr.write(cfg.tracePath(workload))
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	m.set("bench.trace_spans", float64(n))
	return nil
}

// sizes scales every workload; 1 is the declared benchmark.
type sizes struct {
	wire    map[string]wireSpec
	embed   embedSpec
	compact compactSpec
}

func fullSizes() sizes { return sizes{wire: wireSpecs, embed: embedDefault, compact: compactDefault} }

// smokeSizes is every workload at about 1 % of its size: enough to cross
// every code path, small enough for `go test`.
func smokeSizes() sizes {
	s := sizes{wire: map[string]wireSpec{}, embed: embedDefault, compact: compactDefault}
	for name, w := range wireSpecs {
		w.records = max(w.records/50, uint64(4*w.clients+scanLen))
		w.records -= w.records % uint64(w.clients)
		w.roundOps = max(w.roundOps/100, 2*w.clients)
		s.wire[name] = w
	}
	s.embed.records /= 50
	s.embed.readRound /= 100
	s.embed.scanRound /= 10
	s.compact.entries /= 20
	return s
}

// runWorkload runs one workload in this process.
func runWorkload(name string, sz sizes, cfg runConfig) (*measured, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work
	switch name {
	case wlWireMixed, wlWireScan, wlWirePipelined:
		return runWire(sz.wire[name], cfg)
	case wlEmbedStore:
		return runEmbed(sz.embed, cfg)
	case wlCompactMerge:
		return runCompact(sz.compact, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// emit checks m against the declaration, prints every metric as
// `workload metric value unit`, and prints the result object as the last
// line of standard output.
func emit(w io.Writer, bf *benchmarkFile, workload string, m *measured, trace bool) error {
	for name := range m.values {
		if _, ok := bf.decl(name); !ok {
			return fmt.Errorf("metric %s was measured but %s does not declare it", name, benchmarkFileName)
		}
	}
	decls := bf.EndToEnd
	if trace {
		decls = bf.PerLayer
	}
	res, err := m.result(decls, !trace)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g ratio\n", workload, float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process and print its result line; empty runs all five, one child process each")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of "+benchmarkFileName+")")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	runs := fs.Int("runs", 1, "all-workloads mode: repetitions per workload, each with its own seed; the report records medians and spreads")
	out := fs.String("out", filepath.Join(buildDir, "report.json"), "all-workloads mode: where the JSON report goes")
	smoke := fs.Bool("smoke", false, "run all five workloads at ~1 % scale in this process, traced and untraced, and check every declared metric is produced")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(benchmarkFileName)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%s not found: run from the root of the repository", benchmarkFileName)
	}
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, setupReps: 3, setupBudget: time.Second, probeTime: probeTime, outDir: buildDir}
	if cfg.trace {
		// setup_s is an end-to-end metric; a traced run sets up once, so
		// the trace holds one store's events.
		cfg.setupReps, cfg.setupBudget = 1, 0
	}
	switch {
	case *smoke:
		return smokeRun(os.Stdout, bf, buildDir)
	case *workload != "":
		m, err := runWorkload(*workload, fullSizes(), cfg)
		if err != nil {
			return err
		}
		return emit(os.Stdout, bf, *workload, m, cfg.trace)
	}
	return runAll(bf, cfg, *runs, *out)
}

// smokeRun runs every workload small, both ways, and checks the metric
// sets: every declared end-to-end metric measured, every measured name
// declared, nothing failed.
func smokeRun(w io.Writer, bf *benchmarkFile, outDir string) error {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.2, trace: trace, setupReps: 1, probeTime: 2 * time.Millisecond, outDir: outDir}
			m, err := runWorkload(name, smokeSizes(), cfg)
			if err != nil {
				return fmt.Errorf("%s (trace=%v): %w", name, trace, err)
			}
			if m.failed != 0 {
				return fmt.Errorf("%s (trace=%v): %d of %d checks failed", name, trace, m.failed, m.attempted)
			}
			if err := emit(w, bf, name, m, trace); err != nil {
				return fmt.Errorf("%s (trace=%v): %w", name, trace, err)
			}
		}
	}
	return nil
}
