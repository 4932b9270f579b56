package markov

import (
	"math"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
)

// TestBlackWhiteDistribution: from one black and two whites the hitting
// time is geometric with success probability 1/3 per interaction:
// P[T > t] = (2/3)^t, mean 3, median 2.
func TestBlackWhiteDistribution(t *testing.T) {
	pr := core.NewRuleTable("black-white", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	start := core.NewConfigStates(1, 0, 0)
	g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chain.DistributionFrom(start, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Truncated {
		t.Fatal("geometric tail should fall below eps quickly")
	}
	for tt := 0; tt < 20; tt++ {
		want := math.Pow(2.0/3.0, float64(tt))
		if math.Abs(d.Survival[tt]-want) > 1e-9 {
			t.Fatalf("P[T > %d] = %v, want %v", tt, d.Survival[tt], want)
		}
	}
	if math.Abs(d.Mean()-3.0) > 1e-6 {
		t.Fatalf("Mean = %v, want 3", d.Mean())
	}
	if q, ok := d.Quantile(0.5); !ok || q != 2 {
		t.Fatalf("median = %d (%v), want 2", q, ok)
	}
}

// TestDistributionKS: the one-sample statistic is the largest CDF gap at
// an integer. For P[T > t] = (2/3)^t, the samples {0, 1, 1, 3} have
// empirical CDF 1/4, 3/4, 3/4, 1 at t = 0..3 against 0, 1/3, 5/9,
// 19/27: the gap peaks at t = 1 with 3/4 − 1/3 = 5/12.
func TestDistributionKS(t *testing.T) {
	var d Distribution
	for tt := 0; tt < 40; tt++ {
		d.Survival = append(d.Survival, math.Pow(2.0/3.0, float64(tt)))
	}
	if got := d.KS([]int{3, 1, 0, 1}); math.Abs(got-5.0/12) > 1e-12 {
		t.Fatalf("KS = %v, want 5/12", got)
	}
}

// TestDistributionMeanMatchesLinearSolve: the power-iteration mean must
// agree with the Gaussian-elimination expectation on Protocol 3 at
// N = P = 3.
func TestDistributionMeanMatchesLinearSolve(t *testing.T) {
	pr := naming.NewGlobalP(3)
	start := core.NewConfigStates(0, 0, 0).WithLeader(pr.InitLeader())
	g, err := explore.Build(pr, starts(pr), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := chain.ExpectedSteps(start)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chain.DistributionFrom(start, 1e-10, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if d.Truncated {
		t.Fatal("distribution truncated")
	}
	if rel := math.Abs(d.Mean()-exact) / exact; rel > 1e-6 {
		t.Fatalf("distribution mean %v vs linear-solve %v (rel %v)", d.Mean(), exact, rel)
	}
	// The tail is heavy: the 90th percentile far exceeds the median.
	med, _ := d.Quantile(0.5)
	p90, _ := d.Quantile(0.9)
	if p90 <= med {
		t.Fatalf("implausible quantiles: median %d, p90 %d", med, p90)
	}
	t.Logf("Protocol 3 P=N=3 from all-zero: mean %.1f, median %d, p90 %d", d.Mean(), med, p90)
}

func TestDistributionFromSilentStart(t *testing.T) {
	pr := naming.NewAsymmetric(3)
	start := core.NewConfigStates(0, 1, 2)
	g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chain.DistributionFrom(start, 1e-9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Survival[0] != 0 {
		t.Fatalf("silent start should have P[T > 0] = 0, got %v", d.Survival[0])
	}
	if q, ok := d.Quantile(0.99); !ok || q != 0 {
		t.Fatalf("silent start quantile = %d", q)
	}
}

func TestDistributionUnknownStart(t *testing.T) {
	pr := naming.NewAsymmetric(3)
	g, err := explore.Build(pr, []*core.Config{core.NewConfigStates(0, 1, 2)}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.DistributionFrom(core.NewConfigStates(2, 2, 2), 1e-9, 10); err == nil {
		t.Fatal("unknown start accepted")
	}
}

func TestQuantilePanics(t *testing.T) {
	d := Distribution{Survival: []float64{1, 0.5, 0}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on q = 1")
		}
	}()
	d.Quantile(1)
}

func TestDistributionTruncation(t *testing.T) {
	pr := naming.NewGlobalP(3)
	start := core.NewConfigStates(0, 0, 0).WithLeader(pr.InitLeader())
	g, err := explore.Build(pr, starts(pr), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chain.DistributionFrom(start, 1e-9, 10) // far too few steps
	if err != nil {
		t.Fatal(err)
	}
	if !d.Truncated {
		t.Fatal("expected truncation")
	}
	if _, ok := d.Quantile(0.99); ok {
		t.Fatal("truncated distribution should not resolve deep quantiles")
	}
	if d.Mean() >= 775 {
		t.Fatal("truncated mean should underestimate")
	}
}
