package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty sample. Nearest rank never interpolates, so a
// reported latency is always one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9)) // 99.9 % of 1000 is rank 999, not 999.0000000000001 rounded up
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count), or 0 for an empty sample. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// typical returns the value a quarter of the way in from the better end of
// vals: the third quartile of rates (higherIsBetter), the first of
// latencies. A run measures in rounds and reports the typical round,
// because on a shared box interference only ever slows a round down: the
// better quartile is what the code does when left alone, and it still
// moves when every round gets slower. It is always a value that was
// observed. 0 for an empty sample.
func typical(vals []float64, higherIsBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := (len(s) - 1) / 4
	if higherIsBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

// quartiles returns the first and third quartile of vals using the
// exclusive method, the one Python's statistics.quantiles(vals, n=4) uses
// by default, so spreads computed here match the ones the driver computes.
// Fewer than two values have no quartiles: both results are the value.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of vals as a share of their median:
// the run-to-run noise figure every bound is compared against.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// latencies collects one operation class's samples in nanoseconds.
type latencies []int64

// summary is the percentile digest of one class of samples, in
// microseconds.
type summary struct {
	N    int
	P50  float64
	P95  float64
	P99  float64
	P999 float64
	Max  float64
}

func (l latencies) summarize() summary {
	if len(l) == 0 {
		return summary{}
	}
	us := make([]float64, len(l))
	for i, ns := range l {
		us[i] = float64(ns) / 1e3
	}
	sort.Float64s(us)
	return summary{
		N:    len(us),
		P50:  percentile(us, 50),
		P95:  percentile(us, 95),
		P99:  percentile(us, 99),
		P999: percentile(us, 99.9),
		Max:  us[len(us)-1],
	}
}
