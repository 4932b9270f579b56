package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_a(x) − F_b(x)|, the largest vertical gap between the
// empirical CDFs of the two samples. The inputs need not be sorted and
// are not modified. It panics if either sample is empty (a sup over an
// empty ECDF is meaningless; callers gate on sample size first).
//
// The count engine's differential tests use D to compare
// convergence-step distributions between the agent and count engines —
// the two engines consume randomness differently, so equal seeds do not
// reproduce trajectories and only the distributions can agree.
func KSDistance(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KSDistance on empty sample")
	}
	as := make([]float64, len(a))
	bs := make([]float64, len(b))
	copy(as, a)
	copy(bs, b)
	sort.Float64s(as)
	sort.Float64s(bs)

	// Merge-walk both sorted samples; after consuming all points ≤ x the
	// ECDF gap at x is |i/m − j/n|. Ties must advance both sides before
	// the gap is measured, or equal samples report a spurious gap.
	m, n := float64(len(as)), float64(len(bs))
	i, j := 0, 0
	d := 0.0
	for i < len(as) && j < len(bs) {
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
		if g := math.Abs(float64(i)/m - float64(j)/n); g > d {
			d = g
		}
	}
	// Once one sample is exhausted its ECDF is 1; the remaining gaps
	// only shrink toward 0, so the walk above already saw the sup.
	return d
}

// KSCritical returns the large-sample critical value for the two-sample
// KS test at significance level alpha (0 < alpha < 1): samples of sizes
// m and n drawn from the same distribution satisfy
// D ≤ c(α)·sqrt((m+n)/(m·n)) with probability ≥ 1−α, where
// c(α) = sqrt(−ln(α/2)/2). It panics on non-positive sizes or an
// out-of-range alpha.
func KSCritical(alpha float64, m, n int) float64 {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("stats: KSCritical with sample sizes %d, %d", m, n))
	}
	return ksC(alpha) * math.Sqrt(float64(m+n)/(float64(m)*float64(n)))
}

// KSCriticalOne is the one-sample counterpart of KSCritical: m draws
// from a fully specified distribution F keep their empirical CDF within
// c(α)/sqrt(m) of F with probability ≥ 1−α. For a discrete F, such as
// an exact convergence-time law, the test is conservative. It panics
// on a non-positive m or an out-of-range alpha.
func KSCriticalOne(alpha float64, m int) float64 {
	if m <= 0 {
		panic(fmt.Sprintf("stats: KSCriticalOne with sample size %d", m))
	}
	return ksC(alpha) / math.Sqrt(float64(m))
}

// ksC is the large-sample KS coefficient c(α) = sqrt(−ln(α/2)/2).
func ksC(alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: KS critical value with alpha %v outside (0,1)", alpha))
	}
	return math.Sqrt(-math.Log(alpha/2) / 2)
}

// KSSame reports whether the two samples pass the KS test at level
// alpha — D below the critical value, i.e. no evidence the samples come
// from different distributions — along with the statistic and the
// threshold it was held to.
func KSSame(a, b []float64, alpha float64) (same bool, d, critical float64) {
	d = KSDistance(a, b)
	critical = KSCritical(alpha, len(a), len(b))
	return d <= critical, d, critical
}
