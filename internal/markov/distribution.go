package markov

import (
	"fmt"
	"math"
	"slices"

	"popnaming/internal/core"
)

// Distribution is the exact law of the convergence time T from a fixed
// starting configuration: Survival[t] = P[T > t], computed by power
// iteration of the transient transition matrix (each step multiplies
// the transient probability mass by the one-interaction kernel).
type Distribution struct {
	// Survival[t] = P[T > t] for t = 0..len-1. Survival[0] is 1 for a
	// non-silent start and 0 for a silent one.
	Survival []float64
	// Truncated reports whether iteration stopped at the step cap
	// before the residual mass fell below the threshold.
	Truncated bool
}

// Quantile returns the smallest t with P[T <= t] >= q. For truncated
// distributions it returns the cap and false when the quantile lies
// beyond the computed horizon.
func (d Distribution) Quantile(q float64) (int, bool) {
	if q < 0 || q >= 1 {
		panic(fmt.Sprintf("markov: quantile %v out of [0,1)", q))
	}
	for t, s := range d.Survival {
		if 1-s >= q {
			return t, true
		}
	}
	return len(d.Survival), false
}

// Mean returns the expectation implied by the computed survival prefix
// (sum of P[T > t]); for truncated distributions this underestimates.
func (d Distribution) Mean() float64 {
	sum := 0.0
	for _, s := range d.Survival {
		sum += s
	}
	return sum
}

// KS returns the one-sample Kolmogorov–Smirnov statistic of samples
// (convergence times) against the law: the largest gap between their
// empirical CDF and the exact CDF over the computed horizon. Both CDFs
// step only at integers, so checking every integer t finds the sup.
// samples must be non-empty; it is not modified.
func (d Distribution) KS(samples []int) float64 {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	m := float64(len(sorted))
	gap := 0.0
	for t, s := range d.Survival {
		le, _ := slices.BinarySearch(sorted, t+1) // samples ≤ t
		emp := float64(le) / m
		gap = math.Max(gap, math.Abs(emp-(1-s)))
	}
	return gap
}

// DistributionFrom computes the exact distribution of the convergence
// time from the given start, iterating until the survival probability
// drops below eps or maxSteps interactions have been unrolled.
func (c *Chain) DistributionFrom(start *core.Config, eps float64, maxSteps int) (Distribution, error) {
	id := c.graph.NodeID(start)
	if id < 0 {
		return Distribution{}, fmt.Errorf("markov: configuration %s not in the explored graph", start)
	}
	if eps <= 0 {
		eps = 1e-9
	}
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}

	g := c.graph
	w := 1.0 / float64(c.pairs)
	if g.Proto.Symmetric() {
		w = 2.0 / float64(c.pairs)
	}

	// mass[v] = probability of being at transient node v at time t.
	mass := make([]float64, g.Size())
	next := make([]float64, g.Size())
	if !c.absorbing[id] {
		mass[id] = 1
	}
	var d Distribution
	survival := sum(mass)
	d.Survival = append(d.Survival, survival)
	for t := 0; survival > eps; t++ {
		if t >= maxSteps {
			d.Truncated = true
			break
		}
		for i := range next {
			next[i] = 0
		}
		for v, m := range mass {
			if m == 0 {
				continue
			}
			used := 0.0
			for _, e := range g.Succ[v] {
				used += w
				if !c.absorbing[e.To] {
					next[e.To] += m * w
				}
			}
			if residual := 1.0 - used; residual > 1e-12 && !c.absorbing[v] {
				next[v] += m * residual
			}
		}
		mass, next = next, mass
		survival = sum(mass)
		d.Survival = append(d.Survival, survival)
	}
	return d, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
