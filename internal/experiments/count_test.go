package experiments

import (
	"strings"
	"testing"
)

func TestCountScaleSmall(t *testing.T) {
	res := CountScale(CountScaleOptions{Sizes: []int{1_000, 100_000}, Steps: 200_000, Seed: 3})
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Steps != 200_000 {
			t.Errorf("N=%d ran %d interactions, want the full 200000 (workload went silent?)", p.N, p.Steps)
		}
		if p.StepsPerSec <= 0 {
			t.Errorf("N=%d reports %.0f steps/sec", p.N, p.StepsPerSec)
		}
	}
	var sb strings.Builder
	RenderCountScale(&sb, res)
	if !strings.Contains(sb.String(), "E24") {
		t.Fatal("render output missing the experiment tag")
	}
}
