package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is what a report records about where it was taken, so two
// reports from different machines are not compared by accident.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	FreeDiskGB float64 `json:"free_disk_gb"`
	// Noisy marks a report taken with the 1-minute load average above
	// half the cores, or with under 4 GB of free disk.
	Noisy bool   `json:"noisy"`
	Time  string `json:"time"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(blob))
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(blob)); len(fields) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(fields[0], 64) // unparsable reads as idle
		}
	}
	// A checkout that is not a git repository has no commit to record.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var fsStat syscall.Statfs_t
	if err := syscall.Statfs(".", &fsStat); err == nil {
		env.FreeDiskGB = float64(fsStat.Bavail) * float64(fsStat.Bsize) / 1e9
		env.Noisy = env.FreeDiskGB < 4
	}
	if env.LoadAvg1 > float64(env.NProc)/2 {
		env.Noisy = true
	}
	return env
}

// series is one metric over the repetitions of a report.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func newSeries(unit string, values []float64) series {
	q1, q3 := quartiles(values)
	return series{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Spread: spread(values), Values: values}
}

// workloadReport is one workload's numbers in a report.
type workloadReport struct {
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
}

// report is the JSON file an all-workloads run writes and `compare` reads.
type report struct {
	Env       environment               `json:"env"`
	Runs      int                       `json:"runs"`
	Seconds   float64                   `json:"seconds"`
	Seed      int64                     `json:"seed"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// runChild runs one workload in a fresh process of this same binary and
// parses the result object off the last line of its output.
func runChild(workload string, seed int64, seconds float64, trace bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	return res, nil
}

// runAll runs every workload `runs` times, each run in its own process
// with its own seed and the workloads in a different order each time,
// prints every metric as `workload metric value unit`, and writes the
// report. It fails when any check failed.
func runAll(bf *benchmarkFile, cfg runConfig, runs int, outPath string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", runs)
	}
	rep := report{Env: readEnvironment(), Runs: runs, Seconds: cfg.seconds, Seed: cfg.seed, Workloads: map[string]workloadReport{}}
	if rep.Env.Noisy {
		fmt.Fprintf(os.Stderr, "benchmark: noisy environment (load %.2f on %d cores, %.1f GB free): numbers will spread\n",
			rep.Env.LoadAvg1, rep.Env.NProc, rep.Env.FreeDiskGB)
	}
	type samples map[string][]float64
	e2e, layer := map[string]samples{}, map[string]samples{}
	collect := func(into map[string]samples, workload string, res result) {
		if into[workload] == nil {
			into[workload] = samples{}
		}
		for name, v := range res.Metrics {
			into[workload][name] = append(into[workload][name], v.Value)
		}
		wr := rep.Workloads[workload]
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		rep.Workloads[workload] = wr
	}
	for r := 0; r < runs; r++ {
		for i := range workloadNames {
			name := workloadNames[(i+r)%len(workloadNames)]
			res, err := runChild(name, cfg.seed+int64(r), cfg.seconds, false)
			if err != nil {
				return err
			}
			collect(e2e, name, res)
			fmt.Fprintf(os.Stderr, "benchmark: run %d/%d %s done\n", r+1, runs, name)
		}
	}
	if cfg.trace {
		for _, name := range workloadNames {
			res, err := runChild(name, cfg.seed, cfg.seconds, true)
			if err != nil {
				return err
			}
			collect(layer, name, res)
		}
	}
	failed := int64(0)
	for _, name := range workloadNames {
		wr := rep.Workloads[name]
		wr.EndToEnd = map[string]series{}
		for _, d := range bf.EndToEnd {
			wr.EndToEnd[d.Name] = newSeries(d.Unit, e2e[name][d.Name])
			fmt.Printf("%s %s %.6g %s\n", name, d.Name, wr.EndToEnd[d.Name].Median, d.Unit)
		}
		if cfg.trace {
			wr.PerLayer = map[string]series{}
			for _, d := range bf.PerLayer {
				wr.PerLayer[d.Name] = newSeries(d.Unit, layer[name][d.Name])
				fmt.Printf("%s %s %.6g %s\n", name, d.Name, wr.PerLayer[d.Name].Median, d.Unit)
			}
		}
		fmt.Printf("%s fail_ratio %.6g ratio\n", name, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		failed += wr.Failed
		rep.Workloads[name] = wr
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: report written to %s\n", outPath)
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}
