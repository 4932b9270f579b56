package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
)

// TestCountStreamPins holds the count engine's random stream to fixed
// fingerprints: the number of state changes of one seeded run and its
// final census (a SHA-256 prefix of the counts). A change to the
// sampler or to its generator that moves a single draw moves them. The
// fixtures are sim-heavy's count cell (Proposition 12's asym protocol
// at P = 64, N = 10⁶, from the all-zero start, where most interactions
// are non-null) and the churn table at the compiled cap of 1024 states,
// where the initiator search crosses many states per draw.
func TestCountStreamPins(t *testing.T) {
	asym := naming.NewAsymmetric(64)
	zero, err := CountStart(asym, 1_000_000, "zero")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		pr      core.Protocol
		cc      *core.CountConfig
		budget  int
		nonNull int
		census  string
	}{
		{"asym-p64-n1e6", asym, zero, 200_000, 168_928, "9fd78493a3cdf542"},
		{"churn-q1024", churnProto(1024), balancedCount(1024, 50_000), 50_000_000, 48_196, "b97f461621bb96e3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewCountRunner(c.pr, c.cc, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(c.budget)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprint(res.Final.Counts)))
			census := fmt.Sprintf("%x", sum[:8])
			if res.Steps != c.budget || res.NonNull != c.nonNull || census != c.census {
				t.Fatalf("%d steps, %d non-null, census %s; want %d, %d, %s", res.Steps, res.NonNull, census, c.budget, c.nonNull, c.census)
			}
		})
	}
}
