package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func ser(vals ...float64) series { return newSeries("x", vals) }

func TestWorsening(t *testing.T) {
	if got := worsening("lower", 100, 110); !near(got, 0.1) {
		t.Errorf("latency up 10%%: %v", got)
	}
	if got := worsening("higher", 100, 90); !near(got, 0.1) {
		t.Errorf("throughput down 10%%: %v", got)
	}
	if got := worsening("higher", 100, 120); !near(got, -0.2) {
		t.Errorf("throughput up 20%%: %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		d        metricDecl
		old, cur series
		want     verdict
	}{
		{"within bound, quiet", lower, ser(100, 101, 99, 100, 100), ser(104, 105, 103, 104, 104), verdictOK},
		{"beyond bound, quiet", lower, ser(100, 101, 99, 100, 100), ser(115, 116, 114, 115, 115), verdictRegression},
		{"beyond bound, but as noisy as the change", lower, ser(100, 130, 80, 100, 120), ser(115, 90, 140, 115, 100), verdictUnresolved},
		{"within bound, but noisier than the bound", lower, ser(100, 130, 80, 100, 120), ser(104, 85, 125, 104, 130), verdictUnresolved},
		{"every new run beats every old run", lower, ser(100, 130, 80, 100, 120), ser(60, 70, 50, 60, 65), verdictImproved},
		{"throughput down beyond bound", higher, ser(1000, 1010, 990, 1000, 1000), ser(850, 860, 840, 850, 850), verdictRegression},
		{"throughput up", higher, ser(1000, 1010, 990, 1000, 1000), ser(1200, 1210, 1190, 1200, 1200), verdictImproved},
		{"exactly at the bound is not beyond it", lower, ser(100, 100, 100), ser(110, 110, 110), verdictOK},
	} {
		if got, _ := judge(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	bf := &benchmarkFile{
		EndToEnd: []metricDecl{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer: []metricDecl{{Name: "lsm.get_ns", Unit: "ns", Better: "lower"}},
	}
	mk := func(ops float64, failed int64) *report {
		r := &report{Workloads: map[string]workloadReport{}}
		for _, name := range workloadNames {
			r.Workloads[name] = workloadReport{
				EndToEnd: map[string]series{"ops_per_s": ser(ops, ops*1.01, ops*0.99)},
				PerLayer: map[string]series{"lsm.get_ns": ser(8000)},
				Failed:   failed,
			}
		}
		return r
	}
	var out bytes.Buffer
	if err := compareReports(&out, bf, mk(1000, 0), mk(990, 0)); err != nil {
		t.Errorf("1%% down within a 10%% bound: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "lsm.get_ns") {
		t.Error("per-layer rows missing from the comparison")
	}
	out.Reset()
	if err := compareReports(&out, bf, mk(1000, 0), mk(800, 0)); !errors.Is(err, errRegression) {
		t.Errorf("20%% down: err %v, want a regression", err)
	}
	if !strings.Contains(out.String(), string(verdictRegression)) {
		t.Error("regression not printed")
	}
	if err := compareReports(&out, bf, mk(1000, 0), mk(1000, 2)); !errors.Is(err, errRegression) {
		t.Errorf("new failed checks: err %v, want a regression", err)
	}
	cur := mk(1000, 0)
	delete(cur.Workloads, wlWireScan)
	if err := compareReports(&out, bf, mk(1000, 0), cur); !errors.Is(err, errRegression) {
		t.Errorf("workload missing from the new report: err %v, want a regression", err)
	}
}
