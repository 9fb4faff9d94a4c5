package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {1, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these expected values come from it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{12, 3, 7, 9, 20})
	if !near(q1, 5) || !near(q3, 16) {
		t.Errorf("quartiles of five = %v, %v; want 5, 16", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 3})
	if !near(q1, 0.5) || !near(q3, 3.5) {
		t.Errorf("quartiles of two = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got) // (8.25-2.75)/5.5
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, int64(i)*1000)
	}
	s := l.summarize()
	if s.N != 1000 || s.P50 != 500 || s.P95 != 950 || s.P99 != 990 || s.P999 != 999 || s.Max != 1000 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Start: 10, Dur: 30},
		{ID: 3, Parent: 1, Start: 30, Dur: 30}, // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, Dur: 50}, // runs past its parent
	}
	fillSelfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	if spans[0].Self != 40 {
		t.Errorf("parent self time = %d, want 40", spans[0].Self)
	}
	if spans[1].Self != 30 {
		t.Errorf("leaf self time = %d, want its duration", spans[1].Self)
	}
}
