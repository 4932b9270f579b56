package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popnaming/internal/experiments"
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
