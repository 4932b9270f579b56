package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sim"
)

// countOpts returns a flag set that the count engine accepts; tests
// mutate one field at a time to probe the rejection table.
func countOpts() options {
	return options{
		proto: "asym", p: 12, n: 10, sched: "random", init: "zero",
		engine: "count", budget: 1_000_000, seed: 7,
	}
}

func TestCountIncompatibility(t *testing.T) {
	if msg := countIncompatibility(countOpts()); msg != "" {
		t.Fatalf("baseline count options rejected: %s", msg)
	}
	cases := []struct {
		name   string
		mutate func(*options)
		want   string // substring of the rejection message
	}{
		{"adversary", func(o *options) { o.adv = true }, "-adversary"},
		{"faults", func(o *options) { o.faults = "@conv:corrupt=2" }, "-faults"},
		{"deadline", func(o *options) { o.deadline = 1 }, "supervised"},
		{"retries", func(o *options) { o.retries = 1 }, "supervised"},
		{"stall", func(o *options) { o.stall = 10 }, "supervised"},
		{"audit", func(o *options) { o.audit = true }, "-audit"},
		{"roundrobin", func(o *options) { o.sched = "roundrobin" }, "-sched roundrobin"},
		{"matching", func(o *options) { o.sched = "matching" }, "-sched matching"},
		{"eclipse", func(o *options) { o.sched = "eclipse" }, "-sched eclipse"},
		{"arbitrary", func(o *options) { o.init = "arbitrary" }, "-init arbitrary"},
	}
	for _, c := range cases {
		o := countOpts()
		c.mutate(&o)
		msg := countIncompatibility(o)
		if msg == "" || !strings.Contains(msg, c.want) {
			t.Errorf("%s: countIncompatibility = %q, want mention of %q", c.name, msg, c.want)
		}
	}
	// uniform init stays accepted.
	o := countOpts()
	o.init = "uniform"
	if msg := countIncompatibility(o); msg != "" {
		t.Errorf("compatible variation rejected: %s", msg)
	}
}

// TestBuildCountConfig pins the count-space starts namesim's -init keys
// build for -engine count (sim.CountStart).
func TestBuildCountConfig(t *testing.T) {
	spec, err := experiments.Lookup("initleader")
	if err != nil {
		t.Fatal(err)
	}
	pr := spec.New(6)
	cc, err := sim.CountStart(pr, 6, "zero")
	if err != nil {
		t.Fatal(err)
	}
	if cc.N() != 6 || cc.Counts[0] != 6 {
		t.Fatalf("zero init counts = %v", cc.Counts)
	}
	if cc.Leader == nil {
		t.Fatal("leader protocol start lost its leader")
	}
	if _, err := sim.CountStart(pr, 6, "uniform"); err != nil {
		t.Fatalf("uniform init: %v", err)
	}
	if _, err := sim.CountStart(pr, 6, "arbitrary"); err == nil {
		t.Fatal("arbitrary init must be rejected as not count-representable")
	}
}

// TestRunCountEveryProtocol drives the full namesim count path for every
// registry protocol, checking the journal carries the count-engine
// header and census records.
func TestRunCountEveryProtocol(t *testing.T) {
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			o := countOpts()
			o.proto = key
			if key == "ssle" {
				o.n = 12
			}
			o.journal = filepath.Join(t.TempDir(), "run.jsonl")
			o.progress = 1000
			if err := run(o); err != nil {
				t.Fatalf("run: %v", err)
			}
			f, err := os.Open(o.journal)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			if !sc.Scan() {
				t.Fatal("empty journal")
			}
			var hdr obs.Header
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.Engine != "count" || hdr.Scheduler != "random" {
				t.Fatalf("header engine=%q scheduler=%q", hdr.Engine, hdr.Scheduler)
			}
			census := 0
			for sc.Scan() {
				if strings.Contains(sc.Text(), `"type":"census"`) {
					census++
				}
			}
			if census == 0 {
				t.Fatal("journal has no census records")
			}
		})
	}
}

// TestRunCountLargeN pins the headline capability: the count path at a
// population the agent engine cannot represent, N far beyond P.
func TestRunCountLargeN(t *testing.T) {
	o := countOpts()
	o.n = 50_000_000
	o.budget = 200_000
	if err := run(o); err != nil {
		t.Fatalf("run at N=5e7: %v", err)
	}
}

// agentOpts is a small agent-engine run from an arbitrary start that
// journals into a fresh temporary directory.
func agentOpts(t *testing.T) options {
	return options{
		proto: "selfstab", p: 6, n: 6, sched: "random", init: "arbitrary",
		engine: "compiled", budget: 1_000_000, seed: 3, progress: 500,
		journal: filepath.Join(t.TempDir(), "run.jsonl"),
	}
}

// setFaults sets -faults the way main does, parsed plan included.
func setFaults(t *testing.T, o *options, plan string) {
	t.Helper()
	p, err := fault.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	o.faults, o.plan = plan, p
}

// runJournal runs namesim with o and returns its journal's records.
func runJournal(t *testing.T, o options) [][]byte {
	t.Helper()
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(o.journal)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

// faultRecs returns the kind/trigger of every fault record, in order.
func faultRecs(t *testing.T, lines [][]byte) []string {
	t.Helper()
	var out []string
	for _, line := range lines {
		var rec obs.FaultRec
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "fault" {
			out = append(out, rec.Kind+"/"+rec.Trigger)
		}
	}
	return out
}

// TestRunAgentEngineTwins: a compiled run and its -engine interp twin
// journal the same records, so compiled ≡ interpreted holds at the CLI
// surface.
func TestRunAgentEngineTwins(t *testing.T) {
	o := agentOpts(t)
	interp := agentOpts(t)
	interp.engine = "interp"
	a := bytes.Join(runJournal(t, o), []byte("\n"))
	b := bytes.Join(runJournal(t, interp), []byte("\n"))
	if !bytes.Equal(obs.Canonical(a), obs.Canonical(b)) {
		t.Fatalf("compiled and interpreted journals differ:\n%s\n---\n%s", a, b)
	}
}

// TestRunAgentConvFaults: each @conv event fires at a detected
// convergence and journals a fault record.
func TestRunAgentConvFaults(t *testing.T) {
	o := agentOpts(t)
	setFaults(t, &o, "@conv:corrupt=3,@conv:corrupt=3")
	got := faultRecs(t, runJournal(t, o))
	if want := []string{"corrupt/conv", "corrupt/conv"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fault records %v, want %v", got, want)
	}
}

// TestRunAgentStallRetry: one crashed agent of two suppresses every
// interaction, so the run stalls, retries once on a derived seed (whose
// injector crashes again), stalls again and aborts.
func TestRunAgentStallRetry(t *testing.T) {
	o := agentOpts(t)
	o.proto, o.p, o.n, o.init = "asym", 2, 2, "zero"
	o.retries, o.stall = 1, 500
	setFaults(t, &o, "@0:crash=1")
	got := faultRecs(t, runJournal(t, o))
	if want := []string{"crash/step", "retry/stall", "crash/step", "abort/stall"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fault records %v, want %v", got, want)
	}
}

// TestRunAgentAdversary: -adversary runs the greedy adversary as the
// runner's scheduler, so its journal names it and its summary carries
// the fairness-forced count and the per-rule fire counts.
func TestRunAgentAdversary(t *testing.T) {
	o := agentOpts(t)
	o.proto, o.init, o.adv = "asym", "zero", true
	lines := runJournal(t, o)
	var hdr obs.Header
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Scheduler != "greedy-adversary" {
		t.Fatalf("header scheduler %q", hdr.Scheduler)
	}
	var sum obs.Summary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Type != "summary" {
		t.Fatalf("last record is not a summary: %v %s", err, lines[len(lines)-1])
	}
	if sum.Forced <= 0 || len(sum.Rules) == 0 {
		t.Fatalf("summary forced %d, %d rules", sum.Forced, len(sum.Rules))
	}
}

// TestCheckFlags: the values the protocol constructors and schedulers
// cannot take are rejected with the flag named, instead of panicking
// inside run.
func TestCheckFlags(t *testing.T) {
	base := options{proto: "asym", p: 8, sched: "random", init: "zero", engine: "compiled", hide: 100}
	for _, c := range []struct {
		name   string
		mutate func(*options)
		want   string // "" accepts; else the flag the error names
	}{
		{"defaults", func(*options) {}, ""},
		{"p0", func(o *options) { o.p = 0 }, "-p 0"},
		{"p1", func(o *options) { o.p = 1 }, "-p 1"},
		{"n-1", func(o *options) { o.n = -1 }, "-n -1"},
		{"n>p", func(o *options) { o.n = 9 }, "-n 9"},
		{"count n>p", func(o *options) { o.engine = "count"; o.n = 1000 }, ""},
		{"hidden9", func(o *options) { o.sched = "eclipse"; o.hidden = 9 }, "-hidden 9"},
		{"hidden-1", func(o *options) { o.sched = "eclipse"; o.hidden = -1 }, "-hidden -1"},
		{"eclipse n2", func(o *options) { o.sched = "eclipse"; o.n = 2 }, "-sched eclipse"},
		{"eclipse n2 leader", func(o *options) { o.sched = "eclipse"; o.n = 2; o.proto = "initleader" }, ""},
		{"eclipse n1 leader", func(o *options) { o.sched = "eclipse"; o.n = 1; o.proto = "initleader" }, "-sched eclipse"},
		{"adversary ignores eclipse", func(o *options) { o.adv = true; o.sched = "eclipse"; o.hidden = 9 }, ""},
	} {
		o := base
		c.mutate(&o)
		err := checkFlags(o)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: checkFlags = %v, want accepted", c.name, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("%s: checkFlags = %v, want an error naming %s", c.name, err, c.want)
		}
	}
}
