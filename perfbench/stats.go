package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples the tail percentile must leave above
// it: a percentile read from fewer samples than this is noise.
const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of an already
// sorted sample, 0 for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := nearestRank(q, len(s)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// nearestRank is the 1-based rank of the q-quantile of n samples, ⌈q·n⌉,
// with float error in q·n (0.999·10000 = 9990.000000000002) rounded away.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median is the nearest-rank median of an unsorted sample.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailLadder are the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the tail rule to a sorted sample: the highest percentile of
// tailLadder whose nearest-rank value still has at least tailBeyond samples
// above it in rank. A fixed ladder keeps the choice the same between runs
// of similar size. A sample too small for even the median reports its
// minimum at percentile 0, so the caller still prints a number.
func tail(s []float64) (value, percentile float64) {
	n := len(s)
	for _, p := range tailLadder {
		rank := nearestRank(p/100, n)
		if rank >= 1 && n-rank >= tailBeyond {
			return s[rank-1], p
		}
	}
	if n == 0 {
		return 0, 0
	}
	return s[0], 0
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of a sorted
// sample: a weighted mean of all order statistics, with the weights of a
// Beta(q(n+1), (1−q)(n+1)) distribution over the ranks. It moves smoothly
// where a single order statistic would jump across a gap in the sample,
// such as cold-solve's gap between fast and budget-bound solves.
func hdQuantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betai/betacf).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 3e-14 {
			break
		}
	}
	return h
}

// ratio is num/den, 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
