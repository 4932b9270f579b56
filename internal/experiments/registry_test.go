package experiments

import (
	"strings"
	"testing"

	"popnaming/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	keys := RegistryKeys()
	want := []string{"asym", "counting", "globalp", "initleader", "naive", "selfstab", "ssle", "symglobal"}
	if len(keys) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(keys), len(want), keys)
	}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestRegistryEntriesConstructValidProtocols(t *testing.T) {
	for _, k := range RegistryKeys() {
		spec, err := Lookup(k)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", k, err)
		}
		pr := spec.New(4)
		if err := core.CheckProtocol(pr); err != nil {
			t.Errorf("%s: %v", k, err)
		}
		if spec.Fairness != "weak" && spec.Fairness != "global" {
			t.Errorf("%s: odd fairness %q", k, spec.Fairness)
		}
		if spec.Description == "" {
			t.Errorf("%s: empty description", k)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	if !strings.Contains(err.Error(), "known:") {
		t.Errorf("error %q should list known keys", err)
	}
}
