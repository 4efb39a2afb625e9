package main

import (
	"math"
	"sort"
)

// samples is one timing distribution collected in a run.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tailQuantiles are the percentiles tail considers, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tail returns the highest percentile of tailQuantiles that has at least
// ten samples beyond it, and its nearest-rank value. ok is false when the
// run has too few samples for any of them (fewer than 40).
func (s samples) tail() (q, v float64, ok bool) {
	n := len(s)
	sorted := s.sorted()
	for _, q := range tailQuantiles {
		i := int(math.Ceil(q*float64(n))) - 1
		if i >= 0 && n-1-i >= 10 {
			return q, sorted[i], true
		}
	}
	return 0, 0, false
}

// quantile is the nearest-rank q-quantile; 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := s.sorted()
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}
