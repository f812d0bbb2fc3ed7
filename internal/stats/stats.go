// Package stats implements the statistical routines of the "gray toolbox"
// described in Section 5 of the paper: simple descriptive statistics,
// incremental (streaming) statistics, correlation, outlier discard,
// two-group clustering, linear regression, exponential averaging, and the
// paired-sample sign test used by MS Manners.
//
// All routines operate on float64 slices and never mutate their inputs
// unless documented otherwise.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for an empty
// slice, mirroring the convention of the other routines here.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (NaN if empty).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs (NaN if empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (NaN if empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (NaN if empty). xs is not modified.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Correlation returns the Pearson correlation coefficient of the paired
// samples x and y. It returns NaN when the lengths differ, fewer than two
// pairs exist, or either series is constant.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// DiscardOutliers returns the elements of xs within k standard deviations
// of the median. The median (rather than the mean) makes the filter robust
// against the very outliers being discarded. If the standard deviation is
// zero, xs is returned unfiltered (copied).
func DiscardOutliers(xs []float64, k float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	med := Median(xs)
	sd := StdDev(xs)
	out := make([]float64, 0, len(xs))
	if sd == 0 {
		return append(out, xs...)
	}
	for _, x := range xs {
		if math.Abs(x-med) <= k*sd {
			out = append(out, x)
		}
	}
	return out
}

// SignTest performs the paired-sample sign test: given paired observations
// a and b, it returns the number of pairs where a > b, the number where
// a < b (ties dropped), and the two-sided binomial p-value for the null
// hypothesis that positive and negative differences are equally likely.
func SignTest(a, b []float64) (plus, minus int, p float64) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] > b[i]:
			plus++
		case a[i] < b[i]:
			minus++
		}
	}
	total := plus + minus
	if total == 0 {
		return plus, minus, 1
	}
	k := plus
	if minus < plus {
		k = minus
	}
	// Two-sided p = 2 * P(X <= k), X ~ Binomial(total, 0.5), capped at 1.
	p = 2 * binomCDF(k, total, 0.5)
	if p > 1 {
		p = 1
	}
	return plus, minus, p
}

// binomCDF returns P(X <= k) for X ~ Binomial(n, pr), computed in log
// space for numerical stability.
func binomCDF(k, n int, pr float64) float64 {
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += math.Exp(logChoose(n, i) + float64(i)*math.Log(pr) + float64(n-i)*math.Log(1-pr))
	}
	return sum
}

func logChoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}
