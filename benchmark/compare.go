package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is what compare says about one end-to-end metric on one
// workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
	verdictRegression verdict = "REGRESSION"
)

// worsening is how much worse b is than a as a share of a: positive means
// worse, whichever direction is better for the metric.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// judge compares one metric's two series against its bound. A change
// beyond the bound is a regression unless the files' own run-to-run
// spreads are as wide as the change, in which case nothing can be said
// and the verdict is unresolved. A change within the bound is ok unless
// the spread is wider than the bound (the bound cannot be checked at that
// noise), again unresolved, except when every new run beats every old
// one.
func judge(d metricDecl, old, cur series) (verdict, float64) {
	worse := worsening(d.Better, old.Median, cur.Median)
	noise := max(old.Spread, cur.Spread)
	switch {
	case allBetter(d.Better, old.Values, cur.Values) && worse < 0:
		return verdictImproved, worse
	case worse > d.Bound && noise >= worse:
		return verdictUnresolved, worse
	case worse > d.Bound:
		return verdictRegression, worse
	case noise > d.Bound:
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in report", path)
	}
	return &r, nil
}

var errRegression = errors.New("regression")

// compareReports prints one row per workload and end-to-end metric, then
// the per-layer metrics both reports carry, and returns errRegression
// when any row regressed or the new report has failed checks.
func compareReports(w io.Writer, bf *benchmarkFile, old, cur *report) error {
	if old.Env.NProc != cur.Env.NProc || old.Env.GoVersion != cur.Env.GoVersion {
		fmt.Fprintf(w, "warning: environments differ (%d cores %s vs %d cores %s): deltas mix machine and code\n",
			old.Env.NProc, old.Env.GoVersion, cur.Env.NProc, cur.Env.GoVersion)
	}
	if old.Env.Noisy || cur.Env.Noisy {
		fmt.Fprintln(w, "warning: a report was taken in a noisy environment")
	}
	regressed := false
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse%", "bound%", "noise%", "verdict")
	for _, name := range workloadNames {
		ow, ok1 := old.Workloads[name]
		cw, ok2 := cur.Workloads[name]
		if !ok1 || !ok2 {
			fmt.Fprintf(w, "%-15s missing from one report\n", name)
			regressed = regressed || !ok2
			continue
		}
		for _, d := range bf.EndToEnd {
			v, worse := judge(d, ow.EndToEnd[d.Name], cw.EndToEnd[d.Name])
			regressed = regressed || v == verdictRegression
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %+8.2f %7.1f %7.2f  %s\n", name, d.Name,
				ow.EndToEnd[d.Name].Median, cw.EndToEnd[d.Name].Median, worse*100, d.Bound*100,
				max(ow.EndToEnd[d.Name].Spread, cw.EndToEnd[d.Name].Spread)*100, v)
		}
		if cw.Failed > ow.Failed {
			regressed = true
			fmt.Fprintf(w, "%-15s %-12s %14d %14d  REGRESSION: more failed checks\n", name, "failed", ow.Failed, cw.Failed)
		}
	}
	for _, name := range workloadNames {
		ow, cw := old.Workloads[name], cur.Workloads[name]
		if len(ow.PerLayer) == 0 || len(cw.PerLayer) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nper-layer, %s (no bounds: context for the rows above)\n", name)
		for _, d := range bf.PerLayer {
			o, c := ow.PerLayer[d.Name], cw.PerLayer[d.Name]
			if o.Median == 0 && c.Median == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-36s %14.6g %14.6g %+8.2f%% %s\n", d.Name, o.Median, c.Median, ratio(c.Median-o.Median, o.Median)*100, d.Unit)
		}
	}
	if regressed {
		return errRegression
	}
	return nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare old.json new.json")
	}
	bf, err := loadBenchmarkFile(benchmarkFileName)
	if err != nil {
		return err
	}
	old, err := readReport(args[0])
	if err != nil {
		return err
	}
	cur, err := readReport(args[1])
	if err != nil {
		return err
	}
	return compareReports(os.Stdout, bf, old, cur)
}
