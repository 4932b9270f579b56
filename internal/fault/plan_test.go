package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	p, err := Parse("@5000:corrupt=3,@conv:crash=1,@conv:leader,@12000:omit=500")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Step: 5000, Kind: Corrupt, Arg: 3},
		{Step: ConvStep, Kind: Crash, Arg: 1},
		{Step: ConvStep, Kind: Leader, Arg: 1},
		{Step: 12000, Kind: Omit, Arg: 500},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(p.Events), len(want))
	}
	for i, ev := range p.Events {
		if ev != want[i] {
			t.Errorf("event %d: got %v, want %v", i, ev, want[i])
		}
	}
	if p.Seed != 0 {
		t.Errorf("seed = %d, want 0", p.Seed)
	}

	// "+" joins kinds under one trigger; a joined event repeats it.
	p, err = Parse("@conv:reboot+corrupt=2,@7:crash+omit=3")
	if err != nil {
		t.Fatal(err)
	}
	want = []Event{
		{Step: ConvStep, Kind: Reboot, Arg: 1},
		{Step: ConvStep, Kind: Corrupt, Arg: 2, Join: true},
		{Step: 7, Kind: Crash, Arg: 1},
		{Step: 7, Kind: Omit, Arg: 3, Join: true},
	}
	if fmt.Sprint(p.Events) != fmt.Sprint(want) {
		t.Errorf("joined groups: got %v, want %v", p.Events, want)
	}
}

func TestParseSeparatorsAndSeed(t *testing.T) {
	p, err := Parse("seed=42 @0:churn=2; @conv:corrupt=1\n@9:omit")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Events) != 3 {
		t.Fatalf("seed %d, %d events", p.Seed, len(p.Events))
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() || p.String() != "" {
		t.Fatalf("empty string parsed to %q", p.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"corrupt=3",              // missing @trigger:
		"@5000corrupt",           // missing colon
		"@x:corrupt",             // bad trigger
		"@-3:corrupt",            // negative step
		"@conv:melt",             // unknown kind
		"@conv:corrupt=0",        // arg below 1
		"@conv:corrupt=-2",       // negative arg
		"@conv:corrupt=many",     // non-integer arg
		"@conv:corrupt+",         // empty joined kind
		"@conv:+corrupt",         // empty leading kind
		"@conv:reboot+melt",      // unknown joined kind
		"@conv:reboot+corrupt=0", // joined arg below 1
		"seed=1,seed=2,@0:omit",  // duplicate seed
		"seed=zzz",               // bad seed
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseErrorStructured pins the structured rejection: every Parse
// failure is a *ParseError locating the offending token by kind, byte
// offset and verbatim text (the ppserved 400-body contract).
func TestParseErrorStructured(t *testing.T) {
	cases := []struct {
		in     string
		kind   string
		offset int
		token  string
	}{
		{"corrupt=3", "event", 0, "corrupt=3"},
		{"@5000corrupt", "event", 0, "@5000corrupt"},
		{"@0:omit @x:corrupt", "trigger", 8, "@x:corrupt"},
		{"@-3:corrupt", "trigger", 0, "@-3:corrupt"},
		{"@conv:melt", "kind", 0, "@conv:melt"},
		{"@conv:corrupt=0", "arg", 0, "@conv:corrupt=0"},
		{"seed=1,seed=2,@0:omit", "seed", 7, "seed=2"},
		{"seed=zzz", "seed", 0, "seed=zzz"},
		{"@0:omit=1,\t @conv:corrupt=many", "arg", 12, "@conv:corrupt=many"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) error %T is not *ParseError", tc.in, err)
			continue
		}
		if pe.Kind != tc.kind || pe.Offset != tc.offset || pe.Token != tc.token {
			t.Errorf("Parse(%q) = {kind %q offset %d token %q}, want {%q %d %q}",
				tc.in, pe.Kind, pe.Offset, pe.Token, tc.kind, tc.offset, tc.token)
		}
		if pe.Reason == "" || !strings.Contains(err.Error(), pe.Token) {
			t.Errorf("Parse(%q) message %q does not carry the token/reason", tc.in, err)
		}
	}
}

func TestLeaderArgCanonicalized(t *testing.T) {
	p, err := Parse("@conv:leader=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Events[0].Arg != 1 {
		t.Fatalf("leader arg = %d, want 1", p.Events[0].Arg)
	}
	if s := p.String(); s != "@conv:leader=1" {
		t.Fatalf("String() = %q", s)
	}
}

func TestPlanConv(t *testing.T) {
	p, err := Parse("@conv:corrupt=2,@100:omit=3,@conv:crash=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Conv() != 2 {
		t.Fatalf("Conv() = %d, want 2", p.Conv())
	}
	// A joined group is one epoch, however many records it writes.
	p, err = Parse("@conv:reboot+corrupt=2,@conv:leader+corrupt=3+churn=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Conv() != 2 || len(p.Events) != 5 {
		t.Fatalf("Conv() = %d over %d events, want 2 over 5", p.Conv(), len(p.Events))
	}
	var nilPlan *Plan
	if nilPlan.Conv() != 0 || !nilPlan.Empty() || nilPlan.String() != "" {
		t.Fatal("nil plan accessors")
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"@5000:corrupt=3",
		"@conv:crash=1",
		"seed=9,@0:churn=4,@conv:leader=1,@1125899906842624:omit=1073741824",
		"@conv:reboot=1+corrupt=2,@conv:reboot=1+corrupt=2",
		"@conv:leader=1+corrupt=3,@5:crash=1+omit=3",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("String(Parse(%q)) = %q", s, got)
		}
	}
}

// FuzzPlanParse pins the round-trip oracle: any input Parse accepts must
// re-parse from its canonical String form to the same plan, and String
// must be a fixed point (String(Parse(String(p))) == String(p)).
func FuzzPlanParse(f *testing.F) {
	f.Add("@5000:corrupt=3,@conv:crash=1")
	f.Add("seed=42,@0:churn=2,@conv:leader=1")
	f.Add("@conv:corrupt")
	f.Add("@12000:omit=500 @13000:omit")
	f.Add("seed=-1;@1:crash=3")
	f.Add("")
	f.Add("@1125899906842624:omit=1073741824")
	f.Add("@conv:reboot+corrupt=2,@conv:reboot+corrupt=2")
	f.Add("@conv:leader+corrupt=3;@9:crash+omit=2+churn")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if p2.Seed != p.Seed || len(p2.Events) != len(p.Events) {
			t.Fatalf("round trip changed plan: %q -> %q (%+v vs %+v)", s, canon, p, p2)
		}
		for i := range p.Events {
			if p.Events[i] != p2.Events[i] {
				t.Fatalf("round trip changed event %d: %v vs %v", i, p.Events[i], p2.Events[i])
			}
		}
		if again := p2.String(); again != canon {
			t.Fatalf("String not a fixed point: %q vs %q", canon, again)
		}
		// Canonical form never contains the alternate separators.
		if strings.ContainsAny(canon, "; \t\n") {
			t.Fatalf("canonical form %q uses non-canonical separators", canon)
		}
	})
}
