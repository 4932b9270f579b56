package experiments

import (
	"fmt"
	"sort"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/election"
	"popnaming/internal/naming"
)

// ProtocolSpec describes one registered protocol for the CLI tools.
type ProtocolSpec struct {
	// Key is the CLI name.
	Key string
	// Description is a one-line summary with the paper reference.
	Description string
	// Fairness names the correctness regime ("weak" implies global too).
	Fairness string
	// New builds an instance for bound P.
	New func(p int) core.Protocol
}

// registry lists every protocol in the repository, keyed by CLI name.
// It is built once and only read.
var registry = map[string]ProtocolSpec{
	"asym": {
		Key:         "asym",
		Description: "Prop 12: asymmetric, P states, leaderless, self-stabilizing",
		Fairness:    "weak",
		New:         func(p int) core.Protocol { return naming.NewAsymmetric(p) },
	},
	"symglobal": {
		Key:         "symglobal",
		Description: "Prop 13: symmetric, P+1 states, leaderless, self-stabilizing, N>2",
		Fairness:    "global",
		New:         func(p int) core.Protocol { return naming.NewSymGlobal(p) },
	},
	"initleader": {
		Key:         "initleader",
		Description: "Prop 14: symmetric, P states, initialized leader + uniform init",
		Fairness:    "weak",
		New:         func(p int) core.Protocol { return naming.NewInitLeader(p) },
	},
	"selfstab": {
		Key:         "selfstab",
		Description: "Prop 16 / Protocol 2: symmetric, P+1 states, arbitrary leader, self-stabilizing",
		Fairness:    "weak",
		New:         func(p int) core.Protocol { return naming.NewSelfStab(p) },
	},
	"globalp": {
		Key:         "globalp",
		Description: "Prop 17 / Protocol 3: symmetric, P states, initialized leader",
		Fairness:    "global",
		New:         func(p int) core.Protocol { return naming.NewGlobalP(p) },
	},
	"counting": {
		Key:         "counting",
		Description: "Protocol 1 [BBCS15]: counting substrate, P states, names N<P",
		Fairness:    "weak",
		New:         func(p int) core.Protocol { return counting.New(p) },
	},
	"ssle": {
		Key:         "ssle",
		Description: "self-stabilizing leader election from naming (Cai-Izumi-Wada; needs N = P exactly)",
		Fairness:    "weak",
		New:         func(p int) core.Protocol { return election.New(p) },
	},
	"naive": {
		Key:         "naive",
		Description: "U* ablation: Protocol 1 with a cyclic sequence (incorrect by design)",
		Fairness:    "weak",
		New:         func(p int) core.Protocol { return counting.NewNaive(p) },
	},
}

// Lookup resolves a CLI protocol name.
func Lookup(key string) (ProtocolSpec, error) {
	spec, ok := registry[key]
	if !ok {
		return ProtocolSpec{}, fmt.Errorf("unknown protocol %q (known: %v)", key, RegistryKeys())
	}
	return spec, nil
}

// RegistryKeys returns the sorted protocol names.
func RegistryKeys() []string {
	keys := make([]string, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
