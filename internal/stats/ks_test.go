package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKSDistanceIdentical(t *testing.T) {
	a := []float64{3, 1, 2, 2, 5}
	if d := KSDistance(a, a); d != 0 {
		t.Errorf("KSDistance(a, a) = %v, want 0", d)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSDistance(a, b); d != 1 {
		t.Errorf("disjoint supports: D = %v, want 1", d)
	}
}

func TestKSDistanceKnown(t *testing.T) {
	// a = {1,2,3,4}, b = {3,4,5,6}: the sup gap is at x ∈ [2,3):
	// F_a = 2/4, F_b = 0.
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	if d := KSDistance(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("D = %v, want 0.5", d)
	}
	// Symmetry.
	if d := KSDistance(b, a); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("D reversed = %v, want 0.5", d)
	}
}

func TestKSDistanceTies(t *testing.T) {
	// Heavy ties across samples: both sides must advance past a tied
	// value before the gap is measured.
	a := []float64{1, 1, 1, 2}
	b := []float64{1, 1, 2, 2}
	// After x=1: F_a = 3/4, F_b = 2/4 → gap 1/4. After x=2: both 1.
	if d := KSDistance(a, b); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("D = %v, want 0.25", d)
	}
}

func TestKSDistancePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("KSDistance on empty sample should panic")
		}
	}()
	KSDistance(nil, []float64{1})
}

func TestKSCritical(t *testing.T) {
	// c(0.05) = sqrt(-ln(0.025)/2) ≈ 1.3581; with m = n = 100 the
	// critical value is c·sqrt(200/10000) ≈ 0.19206.
	got := KSCritical(0.05, 100, 100)
	if math.Abs(got-0.19206) > 1e-4 {
		t.Errorf("KSCritical(0.05, 100, 100) = %v, want ≈0.19206", got)
	}
	// Stricter alpha → larger critical value (harder to reject).
	if KSCritical(0.001, 100, 100) <= got {
		t.Error("critical value must grow as alpha shrinks")
	}
	// More data → smaller critical value.
	if KSCritical(0.05, 1000, 1000) >= got {
		t.Error("critical value must shrink as samples grow")
	}
}

func TestKSCriticalOne(t *testing.T) {
	// c(0.001) = sqrt(-ln(0.0005)/2) ≈ 1.94947: 0.03082 at m = 4000 and
	// 0.06892 at m = 800.
	for _, c := range []struct {
		m    int
		want float64
	}{{4000, 0.03082}, {800, 0.06892}} {
		if got := KSCriticalOne(0.001, c.m); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("KSCriticalOne(0.001, %d) = %v, want ≈%v", c.m, got, c.want)
		}
	}
	// The one-sample value is the two-sample value's limit as the second
	// sample grows.
	if one, two := KSCriticalOne(0.05, 100), KSCritical(0.05, 100, 1<<40); math.Abs(one-two) > 1e-9 {
		t.Errorf("one-sample %v, two-sample limit %v", one, two)
	}
}

func TestKSSameOnSampledData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 400)
	b := make([]float64, 400)
	c := make([]float64, 400)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64() + 1 // shifted: detectably different
	}
	if same, d, crit := KSSame(a, b, 0.01); !same {
		t.Errorf("same-distribution samples rejected: D=%v crit=%v", d, crit)
	}
	if same, d, crit := KSSame(a, c, 0.01); same {
		t.Errorf("unit-shifted samples accepted: D=%v crit=%v", d, crit)
	}
}
