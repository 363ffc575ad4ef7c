package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a p90 read off fewer than ten slower jobs is one outlier
// away from a different number.
const minBeyond = 10

// nearestRank returns the 1-based nearest-rank index of percentile p
// (0 < p <= 100) in n sorted samples: the smallest rank k with
// k/n >= p/100.
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of xs (not
// modified). It fails when fewer than minBeyond samples lie above the
// percentile's rank.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := nearestRank(p, len(s))
	if beyond := len(s) - k; beyond < minBeyond && p < 100 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, len(s), beyond, minBeyond)
	}
	return s[k-1], nil
}

// median is the nearest-rank p50 without the samples-beyond rule, for
// per-class layer figures.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(50, len(s))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// classBoundaryGuard checks that the nearest-rank p-th percentile of a
// list sits inside one job class. classes holds each job's class in
// ascending latency order (jobs sorted by latency, or by the classes'
// expected latency order); the percentile's rank and at least margin
// ranks on either side must all share a class. A percentile on a class
// boundary swings between two classes' latencies with every small
// shift in the mix, which is noise, not a measurement.
func classBoundaryGuard(classes []string, p float64, margin int) error {
	n := len(classes)
	if n == 0 {
		return fmt.Errorf("no jobs")
	}
	k := nearestRank(p, n) - 1
	lo, hi := k-margin, k+margin
	if lo < 0 || hi >= n {
		return fmt.Errorf("p%g (rank %d of %d) is within %d ranks of the list's end", p, k+1, n, margin)
	}
	for i := lo; i <= hi; i++ {
		if classes[i] != classes[k] {
			return fmt.Errorf("p%g (rank %d of %d, class %s) is within %d ranks of class %s at rank %d",
				p, k+1, n, classes[k], margin, classes[i], i+1)
		}
	}
	return nil
}

// guardMargin is the distance in ranks a percentile must keep from a
// class boundary: a twentieth of the list, and never less than five.
func guardMargin(n int) int {
	return max(5, n/20)
}

// latencyOrderedClasses returns the job classes sorted by the jobs'
// measured latency, for the run-time boundary guard.
func latencyOrderedClasses(classes []string, lat []float64) []string {
	idx := make([]int, len(classes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = classes[j]
	}
	return out
}
