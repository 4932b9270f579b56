package fault

import (
	"reflect"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
)

// TestInjectorStreamPinned pins one "@100:corrupt=2" firing against
// selfstab (P = 6) from run seed 7: its victims and the states drawn
// for them. Mobile agents start in a state RandomMobile never draws, so
// the victims are exactly the agents whose state changed. The injector
// must not draw before its first event fires, and the event must draw
// exactly this.
func TestInjectorStreamPinned(t *testing.T) {
	plan, err := Parse("@100:corrupt=2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(plan, naming.NewSelfStab(6), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(6, 99)
	if inj.FireDue(99, cfg) {
		t.Fatal("event fired before its step")
	}
	if !inj.FireDue(100, cfg) {
		t.Fatal("event did not fire at its step")
	}
	want := []core.State{99, 99, 6, 99, 0, 99} // victims 2 and 4
	if !reflect.DeepEqual(cfg.Mobile, want) {
		t.Fatalf("after firing: %v, want %v", cfg.Mobile, want)
	}
}
