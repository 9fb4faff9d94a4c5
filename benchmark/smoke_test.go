package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs all five workloads at about 1 % scale, untraced and
// traced, and checks that every metric BENCHMARK.json declares is printed
// exactly once with its unit, that nothing undeclared is printed, and
// that the last line of each run is the result object.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile("../" + benchmarkFileName)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%s declares %d workloads, the program has %d", benchmarkFileName, len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in %s and %q in the program", i, w.Name, benchmarkFileName, workloadNames[i])
		}
	}
	var out bytes.Buffer
	if err := smokeRun(&out, bf, t.TempDir()); err != nil {
		t.Fatal(err)
	}

	type key struct {
		workload string
		traced   bool
	}
	seen := map[key]map[string]string{} // metric -> unit
	results := map[key]result{}
	traced := map[string]bool{} // a workload's second result line is its traced run
	cur := key{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line does not parse: %v", err)
			}
			results[cur] = r
			traced[cur.workload] = true
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("metric line %q is not `workload metric value unit`", line)
		}
		cur = key{f[0], traced[f[0]]}
		if seen[cur] == nil {
			seen[cur] = map[string]string{}
		}
		if _, dup := seen[cur][f[1]]; dup {
			t.Errorf("%v: metric %s printed twice", cur, f[1])
		}
		seen[cur][f[1]] = f[3]
	}
	for _, name := range workloadNames {
		for _, tr := range []bool{false, true} {
			k := key{name, tr}
			decls := bf.EndToEnd
			if tr {
				decls = bf.PerLayer
			}
			r, ok := results[k]
			if !ok {
				t.Errorf("%v: no result line", k)
				continue
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", k, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(decls) {
				t.Errorf("%v: result carries %d metrics, %d declared", k, len(r.Metrics), len(decls))
			}
			for _, d := range decls {
				if unit, ok := seen[k][d.Name]; !ok {
					t.Errorf("%v: declared metric %s not printed", k, d.Name)
				} else if unit != d.Unit {
					t.Errorf("%v: metric %s printed with unit %q, declared %q", k, d.Name, unit, d.Unit)
				}
				if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%v: result lacks %s in %s", k, d.Name, d.Unit)
				}
			}
			if extra := len(seen[k]) - len(decls) - 1; extra != 0 { // fail_ratio is the one printed line beyond the declared set
				t.Errorf("%v: %d undeclared metric lines", k, extra)
			}
		}
	}
}
