package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The five workloads. The names are fixed: later issues quote them.
const (
	wlWireMixed     = "wire-mixed"
	wlWireScan      = "wire-scan"
	wlWirePipelined = "wire-pipelined"
	wlEmbedStore    = "embed-store"
	wlCompactMerge  = "compact-merge"
)

var workloadNames = []string{wlWireMixed, wlWireScan, wlWirePipelined, wlEmbedStore, wlCompactMerge}

// metricDecl is one metric as BENCHMARK.json declares it. Bound is only
// set for end-to-end metrics.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json. The benchmark reads it to learn
// which names to emit and which bound each end-to-end metric carries, so
// the declaration and the program cannot drift apart: a metric the
// program does not produce fails the run.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: declares no metrics", path)
	}
	return &bf, nil
}

func (bf *benchmarkFile) decl(name string) (metricDecl, bool) {
	for _, set := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

// metricValue is one measured number in a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured is what a workload hands back: every number it produced, keyed
// by metric name, plus its verification tally.
type measured struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

func newMeasured() *measured { return &measured{values: map[string]float64{}} }

func (m *measured) set(name string, v float64) { m.values[name] = v }

// result selects the declared metrics out of m. A declared metric the
// workload did not produce is an error for end-to-end metrics (each must
// be a real measurement on every workload) and reads 0 for per-layer
// metrics, where 0 says the layer did no work in this workload.
func (m *measured) result(decls []metricDecl, mustHave bool) (result, error) {
	r := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	for _, d := range decls {
		v, ok := m.values[d.Name]
		if !ok && mustHave {
			return result{}, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}
