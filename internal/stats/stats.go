// Package stats provides the small statistical toolkit the experiment
// harness uses to summarize convergence-cost samples and to characterize
// growth rates: order statistics, mean/deviation, and least-squares fits
// of exponential (y ~ a·2^(bN)) and power-law (y ~ a·N^b) models, used
// to back the "Θ(2^N)" and "polynomial" claims in EXPERIMENTS.md with
// numbers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics of a sample.
type Summary struct {
	Count    int
	Min, Max float64
	Mean     float64
	Median   float64
	P90      float64
	StdDev   float64
}

// Summarize computes summary statistics; it returns the zero Summary
// for an empty sample and a NaN-free Summary (StdDev 0, all order
// statistics equal to the element) for a single-element one.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	sum, sumSq := 0.0, 0.0
	for _, v := range s {
		sum += v
		sumSq += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: Quantile(s, 0.5),
		P90:    Quantile(s, 0.9),
		StdDev: math.Sqrt(variance),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation. An empty sample yields 0 (never
// NaN): the grid reducer feeds cells where every trial aborted, and a
// zero quantile folds into reports where a panic or NaN would poison
// them. A single-element sample yields that element for every q. It
// panics on an out-of-range q.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g med=%.4g mean=%.4g p90=%.4g max=%.4g sd=%.4g",
		s.Count, s.Min, s.Median, s.Mean, s.P90, s.Max, s.StdDev)
}

// The growth models FitExp2 and FitPower fit, as named in Fit.Model.
const (
	ModelExp2  = "y = A*2^(B*x)"
	ModelPower = "y = A*x^B"
)

// Fit is a least-squares fit of a two-parameter growth model.
type Fit struct {
	// Model names the fitted form.
	Model string
	// A and B are the fitted coefficients (see FitExp2 / FitPower).
	A, B float64
	// R2 is the coefficient of determination in the transformed
	// (linearized) space.
	R2 float64
}

func (f Fit) String() string {
	return fmt.Sprintf("%s: A=%.4g B=%.4g (R²=%.4f)", f.Model, f.A, f.B, f.R2)
}

// FitExp2 fits y ≈ A · 2^(B·x) by linear regression of log2(y) on x.
// All y must be positive; it panics otherwise or on fewer than two
// points.
func FitExp2(x, y []float64) Fit {
	ly := logs(y, math.Log2)
	a, b, r2 := linreg(x, ly)
	return Fit{Model: ModelExp2, A: math.Exp2(a), B: b, R2: r2}
}

// FitPower fits y ≈ A · x^B by linear regression of ln(y) on ln(x).
// All x and y must be positive.
func FitPower(x, y []float64) Fit {
	lx := logs(x, math.Log)
	ly := logs(y, math.Log)
	a, b, r2 := linreg(lx, ly)
	return Fit{Model: ModelPower, A: math.Exp(a), B: b, R2: r2}
}

// BetterFit fits both models and returns the one with higher R².
func BetterFit(x, y []float64) Fit {
	e := FitExp2(x, y)
	p := FitPower(x, y)
	if e.R2 >= p.R2 {
		return e
	}
	return p
}

func logs(v []float64, log func(float64) float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x <= 0 {
			panic(fmt.Sprintf("stats: non-positive value %v in log fit", x))
		}
		out[i] = log(x)
	}
	return out
}

// linreg returns intercept, slope and R² of ordinary least squares.
func linreg(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: regression needs at least two matched points")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	// R² in the transformed space.
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range x {
		d := y[i] - (a + b*x[i])
		ssRes += d * d
	}
	if ssTot <= 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2
}
