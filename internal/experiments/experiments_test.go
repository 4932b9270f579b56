package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/stats"
)

// TestTable1AllCellsAgree is the headline integration test: every cell
// of the paper's Table 1, reproduced and in agreement.
func TestTable1AllCellsAgree(t *testing.T) {
	opts := Table1Options{P: 5, ModelCheckP: 3, Budget: 10_000_000, Seed: 1}
	cells := Table1(opts)
	if len(cells) != 9 {
		t.Fatalf("got %d cells, want 9", len(cells))
	}
	for _, c := range cells {
		if !c.OK {
			t.Errorf("cell (%s, %s) disagrees with the paper: %s", c.Leader, c.Rules, c.Evidence)
		}
	}
	var b strings.Builder
	RenderTable1(&b, cells)
	out := b.String()
	for _, want := range []string{"Prop 1", "Prop 13", "Prop 12", "Prop 16", "Prop 14", "Prop 17", "Thm 11"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}

func TestUStarAblation(t *testing.T) {
	res := UStarAblation(3)
	if !res.UStarOK {
		t.Errorf("Protocol 1 with U* failed the exhaustive check: %s", res.NaiveWitness)
	}
	if res.NaiveOK {
		t.Error("naive variant unexpectedly passed; ablation shows nothing")
	}
	var b strings.Builder
	RenderAblation(&b, res)
	if !strings.Contains(b.String(), "counterexample") {
		t.Errorf("rendered ablation missing counterexample:\n%s", b.String())
	}
}

func TestFairnessSeparation(t *testing.T) {
	res := FairnessSeparation(3, 4)
	if !res.GlobalConverges {
		t.Error("global-fairness check failed")
	}
	if !res.WeakFails {
		t.Error("weak-fairness counterexample not found")
	}
	if !res.CycleWeaklyFair {
		t.Error("lasso cycle is not weakly fair")
	}
	if !res.ReplayNonConverging {
		t.Error("lasso replay did not demonstrate non-convergence")
	}
	if !res.RandomRunConverged {
		t.Error("random run did not converge")
	}
	var b strings.Builder
	RenderSeparation(&b, res)
	if b.Len() == 0 {
		t.Error("empty rendering")
	}
}

func TestResetAblation(t *testing.T) {
	res := ResetAblation(2)
	if !res.WithResetOK {
		t.Error("Protocol 2 with reset failed the exhaustive check")
	}
	if !res.NoResetInitializedOK {
		t.Error("ablated protocol with initialized leader should still name")
	}
	if res.NoResetArbitraryOK {
		t.Error("ablated protocol unexpectedly self-stabilizes; ablation void")
	}
	if res.Witness == "" {
		t.Error("missing stuck witness")
	}
	var b strings.Builder
	RenderResetAblation(&b, res)
	if !strings.Contains(b.String(), "stuck witness") {
		t.Errorf("rendering incomplete:\n%s", b.String())
	}
}

func TestExactTimes(t *testing.T) {
	points := ExactTimes()
	if len(points) == 0 {
		t.Fatal("no exact points")
	}
	byKey := make(map[string]ExactPoint)
	for _, p := range points {
		if p.Err != "" {
			t.Errorf("%s P=N=%d: %s", p.Protocol, p.N, p.Err)
		}
		byKey[fmt.Sprintf("%s/%d", p.Protocol, p.N)] = p
	}
	// Pinned exact values (rational arithmetic up to float rounding).
	pins := map[string]float64{
		"asymmetric-p12/2": 1.0,
		"asymmetric-p12/3": 7.0,
		"symglobal-p13/3":  13.0,
		"globalp-p17/3":    775.336,
	}
	for key, want := range pins {
		got, ok := byKey[key]
		if !ok {
			t.Errorf("missing point %s", key)
			continue
		}
		if diff := got.FromZero - want; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("%s: FromZero = %v, want %v", key, got.FromZero, want)
		}
	}
	// The exponential growth of Protocol 3's full-population cost.
	if byKey["globalp-p17/4"].FromZero < 100*byKey["globalp-p17/3"].FromZero {
		t.Errorf("expected >100x growth from P=3 to P=4: %v vs %v",
			byKey["globalp-p17/3"].FromZero, byKey["globalp-p17/4"].FromZero)
	}
	var b strings.Builder
	RenderExact(&b, points)
	if !strings.Contains(b.String(), "globalp-p17") {
		t.Error("rendering incomplete")
	}
}

func TestThm11Scaling(t *testing.T) {
	points := Thm11Scaling(4, 200_000, 9)
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if !p.GlobalPDefeated {
			t.Errorf("P=%d: adversary failed to defeat the P-state protocol", p.P)
		}
		if !p.SelfStabConverged {
			t.Errorf("P=%d: P+1-state protocol did not converge under the adversary", p.P)
		}
		if p.GlobalPForced <= 0 || p.GlobalPForced >= 1 {
			t.Errorf("P=%d: implausible forced fraction %v", p.P, p.GlobalPForced)
		}
	}
	var b strings.Builder
	RenderThm11(&b, points)
	if !strings.Contains(b.String(), "Theorem 11") {
		t.Error("rendering incomplete")
	}
}

// TestThm11ScalingReproducible: E18 is a function of its seed, so the
// fairness-forced pair among equally overdue ones must not depend on
// map iteration order.
func TestThm11ScalingReproducible(t *testing.T) {
	first := Thm11Scaling(4, 20_000, 1)
	for i := 0; i < 2; i++ {
		if again := Thm11Scaling(4, 20_000, 1); !reflect.DeepEqual(again, first) {
			t.Fatalf("repeat %d differs:\n%+v\nfirst:\n%+v", i+1, again, first)
		}
	}
}

func TestTrajectory(t *testing.T) {
	pr := protoAsym(8)
	tr := TraceTrajectory(pr, core.NewConfig(8, 0), schedRandom(8, false, 12), 5_000_000, 10)
	if tr.ConvergedAt < 0 {
		t.Fatal("trajectory did not converge")
	}
	if len(tr.Points) < 3 {
		t.Fatalf("too few samples: %d", len(tr.Points))
	}
	first, last := tr.Points[0], tr.Points[len(tr.Points)-1]
	if first.Distinct != 1 {
		t.Errorf("all-zero start should have 1 distinct state, got %d", first.Distinct)
	}
	if last.Distinct != 8 {
		t.Errorf("converged trajectory should end with 8 distinct states, got %d", last.Distinct)
	}
	var b strings.Builder
	RenderTrajectories(&b, []Trajectory{tr})
	if !strings.Contains(b.String(), "trajectory") {
		t.Error("rendering incomplete")
	}
}

func TestDistributions(t *testing.T) {
	points := Distributions(800, 5)
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Err != "" {
			t.Errorf("%s: %s", p.Protocol, p.Err)
			continue
		}
		if p.Median <= 0 || p.P90 < p.Median || p.P99 < p.P90 {
			t.Errorf("%s: implausible quantiles %+v", p.Protocol, p)
		}
		// The simulator must sample the exact law: a one-sample KS test
		// at α = 10⁻³ (critical value 0.0689 at 800 samples).
		if crit := stats.KSCriticalOne(1e-3, p.SimTrials); p.SimAgreement > crit {
			t.Errorf("%s: CDF gap %.4f above the critical value %.4f", p.Protocol, p.SimAgreement, crit)
		}
	}
	var b strings.Builder
	RenderDistributions(&b, points)
	if !strings.Contains(b.String(), "E20") {
		t.Error("rendering incomplete")
	}
}

// TestFirstSilenceSeedsIndependent: E20's samples at adjacent base
// seeds must be independent draws. Seeding trial i with seed+i made
// seed 2's trial i replay seed 1's trial i+1, so the two runs shared
// all but one trial and printed the same CDF gaps.
func TestFirstSilenceSeedsIndependent(t *testing.T) {
	const trials = 400
	pr := naming.NewAsymmetric(3)
	a := firstSilenceTimes(pr, core.NewConfig(3, 0), trials, 1)
	b := firstSilenceTimes(pr, core.NewConfig(3, 0), trials, 2)
	same, shifted := 0, 0
	for i := 0; i+1 < trials; i++ {
		if a[i] == b[i] {
			same++
		}
		if a[i+1] == b[i] {
			shifted++
		}
	}
	// Independent draws from this law coincide on about one trial in
	// ten, aligned or shifted; a replayed trial always does.
	if same > trials/3 || shifted > trials/3 {
		t.Fatalf("seeds 1 and 2 share trials: %d aligned and %d shifted coincidences in %d", same, shifted, trials-1)
	}
}

func TestOracleSchedules(t *testing.T) {
	points := OracleSchedules(7)
	if len(points) != 10 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if !p.OK {
			t.Errorf("%s P=%d: oracle failed to name", p.Protocol, p.P)
		}
		if p.OracleSteps <= 0 && p.P > 2 {
			t.Errorf("%s P=%d: empty schedule", p.Protocol, p.P)
		}
		// The whole point: where the exact random cost is known, the
		// constructive schedule is shorter by a wide margin.
		if p.RandomExact > 0 && float64(p.OracleSteps) > p.RandomExact/2 {
			t.Errorf("%s P=%d: oracle %d not much shorter than exact random %v",
				p.Protocol, p.P, p.OracleSteps, p.RandomExact)
		}
	}
	var b strings.Builder
	RenderOracle(&b, points)
	if !strings.Contains(b.String(), "E21") {
		t.Error("rendering incomplete")
	}
}
