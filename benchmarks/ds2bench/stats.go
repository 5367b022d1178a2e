package main

import (
	"math"
	"slices"
	"sort"

	"ds2/internal/metrics"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// alternatingMin is for samples that alternate between two populations
// (reconfig-200k's cycles go count 2→4, 4→2, 2→4, …, and an operation
// at parallelism 4 costs more than at 2): the fastest sample of each
// population, averaged, so that neither direction hides behind the
// other. The fastest, not the median, because interference from the
// host only ever adds time (see README, "Host noise").
func alternatingMin(vals []float64) float64 {
	var even, odd []float64
	for i, v := range vals {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	if len(odd) == 0 {
		return slices.Min(even)
	}
	return (slices.Min(even) + slices.Min(odd)) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) (the default exclusive method) does —
// the arithmetic the driver applies to ten runs — so a spread computed
// here and one computed there agree digit for digit. ok is false below
// two values, where no quartile exists.
func quartiles(vals []float64) (q1, q3 float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, false
	}
	s := sortedCopy(vals)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound is compared against. 0 when fewer
// than two values exist or the median is 0.
func spread(vals []float64) float64 {
	q1, q3, ok := quartiles(vals)
	med := median(vals)
	if !ok || med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// worsening is how far cur is on the wrong side of base, as a share of
// base: positive means worse, whichever direction is "better".
func worsening(base, cur float64, higherBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if higherBetter {
		return -d
	}
	return d
}

// weightedQuantiles returns the q-quantiles (ascending qs) of weighted
// latency samples with the cumulative-weight rule of
// controlloop.LatencyQuantiles, generalized to any quantile list.
func weightedQuantiles(samples []metrics.LatencySample, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := append([]metrics.LatencySample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].Latency < s[j].Latency })
	total := 0.0
	for _, x := range s {
		total += x.Weight
	}
	if total <= 0 {
		return out
	}
	cum, i := 0.0, 0
	for k, q := range qs {
		for target := q * total; cum < target && i < len(s); i++ {
			cum += s[i].Weight
		}
		out[k] = s[max(i-1, 0)].Latency
	}
	return out
}

// scheduleIntegral is the number of records an open-loop source paced
// at rates[i] for phaseSec each is due to emit.
func scheduleIntegral(rates []float64, phaseSec float64) float64 {
	sum := 0.0
	for _, r := range rates {
		sum += r * phaseSec
	}
	return sum
}
