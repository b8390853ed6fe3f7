package main

import (
	"math"
	"sort"
	"time"
)

// summary is one metric of one run: the reported value and, beside it, the
// distribution of the samples it was taken from, so a reader can judge the
// run's own spread.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; it is 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// summarize reports the median of v.
func summarize(v []float64) summary {
	s := sortedCopy(v)
	if len(s) == 0 {
		return summary{}
	}
	med := quantile(s, 0.5)
	return summary{
		Value:  med,
		Median: med,
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// summarizeFastest reports the smallest of v: the estimate of a time that
// repeats on a machine whose interference only ever adds to it.
func summarizeFastest(v []float64) summary {
	s := summarize(v)
	s.Value = s.Min
	return s
}

// tailPercentile picks the highest whole percentile that still has at
// least `beyond` samples above it (p85 for 96 samples and beyond=10, p99
// from 1000 samples on) and returns it with its value. With too few
// samples for any percentile above the median it falls back to the median.
func tailPercentile(v []float64, beyond int) (pct int, value float64) {
	s := sortedCopy(v)
	n := len(s)
	pct = 50
	if n > 0 {
		if p := int(math.Floor(100 * float64(n-beyond) / float64(n))); p > pct {
			pct = p
		}
	}
	if pct > 99 {
		pct = 99
	}
	return pct, quantile(s, float64(pct)/100)
}

// percentile returns the p-th percentile (0..100) of v.
func percentile(v []float64, p float64) float64 { return quantile(sortedCopy(v), p/100) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeCalls times fn until it has both minCalls samples and budget spent
// (or maxCalls samples) and returns the per-call durations. One untimed
// call runs first so lazily built scratch is not charged to the median.
func timeCalls(minCalls, maxCalls int, budget time.Duration, fn func()) []time.Duration {
	fn()
	out := make([]time.Duration, 0, maxCalls)
	start := time.Now()
	for len(out) < maxCalls && (len(out) < minCalls || time.Since(start) < budget) {
		t0 := time.Now()
		fn()
		out = append(out, time.Since(t0))
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}
