package main

import (
	"math"
	"sort"
)

// minP95Samples is the smallest sample a p95 is reported from: 200
// samples leave ten beyond the percentile.
const minP95Samples = 200

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of a
// sorted sample; p is in [0, 1].
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// p95 reports the 95th percentile, or ok=false when the sample is too
// small to have ten values beyond it.
func p95(xs []float64) (v float64, ok bool) {
	if len(xs) < minP95Samples {
		return 0, false
	}
	return quantile(sorted(xs), 0.95), true
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(xs,
// n=4) — the rule the driver accepts a benchmark by. ok=false under two
// values, where no quartile exists.
func spread(xs []float64) (v float64, ok bool) {
	m := len(xs)
	if m < 2 {
		return 0, false
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / math.Abs(med), true
}
