package grid

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/stats"
)

// refReduceCell is the reducer as it read journals before
// obs.ScanJournal: every record decoded into its full typed struct by
// obs.ReadJournal. TestReduceMatchesReadJournal holds reduceCell to it.
func refReduceCell(c Cell, r io.Reader) (CellStats, error) {
	cs := CellStats{Cell: c}
	perTrial := make(map[int]*obs.Summary)
	plan, _ := fault.Parse(c.Fault)
	epochs := plan.Conv()
	var bounds map[int][]boundary
	if epochs > 0 {
		bounds = make(map[int][]boundary)
	}
	knownInvalid := func(v *bool) bool { return v != nil && !*v }
	sawBatch := false
	torn, err := obs.ReadJournal(r, func(rec obs.Rec) error {
		switch rec.Type {
		case "header":
			if rec.Header.Seed != c.Seed {
				return fmt.Errorf("journal seed %d does not match cell seed %d", rec.Header.Seed, c.Seed)
			}
		case "summary":
			s := *rec.Summary
			perTrial[s.Trial] = &s
		case "batch_summary":
			sawBatch = true
			cs.Trials = rec.Batch.Trials
			cs.Converged = rec.Batch.Converged
			cs.Aborted = rec.Batch.Aborted
			cs.Retried = rec.Batch.Retried
		case "fault":
			f := rec.Fault
			switch f.Kind {
			case "retry":
				delete(bounds, f.Trial)
			case "abort":
			default:
				cs.FaultsInjected++
				if b := bounds[f.Trial]; bounds != nil && f.Trigger == "conv" && (len(b) == 0 || b[len(b)-1].step != f.Step) {
					bounds[f.Trial] = append(b, boundary{step: f.Step, valid: !knownInvalid(f.ValidNaming)})
				}
			}
		}
		return nil
	})
	if err != nil {
		return cs, err
	}
	cs.Torn = torn
	if !sawBatch {
		cs.Torn = true
		cs.Trials = len(perTrial)
		for _, s := range perTrial {
			if s.Converged {
				cs.Converged++
			}
		}
	}
	trials := make([]int, 0, len(perTrial))
	for t := range perTrial {
		trials = append(trials, t)
	}
	sort.Ints(trials)
	for _, t := range trials {
		if s := perTrial[t]; s.Converged {
			cs.ConvergedSteps = append(cs.ConvergedSteps, float64(s.Steps))
		}
	}
	cs.Steps = stats.Summarize(cs.ConvergedSteps)
	if epochs > 0 {
		ends := make(map[int]trialEnd, len(perTrial))
		for t, s := range perTrial {
			end := trialEnd{converged: s.Converged, steps: s.Steps, valid: obs.NamingValid}
			if s.ValidNaming == nil {
				end.valid = obs.NamingUnknown
			} else if !*s.ValidNaming {
				end.valid = obs.NamingInvalid
			}
			ends[t] = end
		}
		cs.Epochs = epochStats(epochs, cs.Trials, ends, bounds)
	}
	return cs, nil
}

// oracleScan is obs.ScanJournal's specification: the same line loop
// (lines trimmed, blank lines skipped, non-blank bytes after the last
// newline torn) with each line decoded by encoding/json, a probe for
// its type and then the narrow fields of obs.ScanRec.
func oracleScan(data []byte, fn func(*obs.ScanRec) error) (torn bool, err error) {
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil {
			return len(bytes.TrimSpace(line)) > 0, nil
		}
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &probe) != nil || probe.Type == "" {
			return true, nil
		}
		rec := obs.ScanRec{Type: probe.Type}
		var dst any
		switch probe.Type {
		case "header":
			dst = &rec.Header
		case "summary":
			dst = &rec.Summary
		case "batch_summary":
			dst = &rec.Batch
		case "fault":
			dst = &rec.Fault
		default:
			continue
		}
		if json.Unmarshal(line, dst) != nil {
			return true, nil
		}
		if err := fn(&rec); err != nil {
			return false, err
		}
	}
}

// reduceResult is one reducer's verdict on a journal.
type reduceResult struct {
	stats CellStats
	err   string
}

func reduceWith(c Cell, data []byte, reducer string) reduceResult {
	var cs CellStats
	var err error
	switch reducer {
	case "scan":
		cs, err = reduceCell(c, data)
	case "oracle":
		cs, err = foldJournal(c, func(fn func(*obs.ScanRec) error) (bool, error) { return oracleScan(data, fn) })
	case "reference":
		cs, err = refReduceCell(c, bytes.NewReader(data))
	}
	r := reduceResult{stats: cs}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestReduceMatchesReadJournal holds the scan-based reducer to the
// reducer it replaced, at every byte prefix of real journals: the same
// CellStats, torn flag and error. The journals cover every registry
// protocol on both engines (count cells with census records), a step
// fault, a conv plan joining reboot and corrupt, and a supervised cell
// whose trials retry and abort; a header seed that does not match the
// cell must fail both the same way.
func TestReduceMatchesReadJournal(t *testing.T) {
	specs := []string{
		`{"protocols":["asym","counting","globalp","initleader","naive","selfstab","ssle","symglobal"],"engines":["agent","count"],"populations":[{"p":3,"n":3}],"trials":2,"budget":20000,"progressEvery":2000,"seed":3}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"faults":["@100:corrupt=2"],"trials":2,"budget":300000,"seed":5}`,
		`{"protocols":["counting"],"populations":[{"p":6,"n":5}],"inits":["arbitrary"],"faults":["@conv:reboot+corrupt=2,@conv:reboot+corrupt=2"],"trials":2,"stall":204800,"seed":1}`,
		`{"protocols":["asym"],"populations":[{"p":3,"n":3}],"faults":["@5:crash=2"],"stall":512,"retries":1,"trials":4,"budget":200000,"seed":3}`,
	}
	var sawRetry, sawAbort, sawConv, sawCensus bool
	for _, src := range specs {
		sp := parse(t, src)
		for _, c := range sp.Cells() {
			journal := runCellBuf(t, sp, c)
			sawRetry = sawRetry || bytes.Contains(journal, []byte(`"kind":"retry"`))
			sawAbort = sawAbort || bytes.Contains(journal, []byte(`"kind":"abort"`))
			sawConv = sawConv || bytes.Contains(journal, []byte(`"trigger":"conv"`))
			sawCensus = sawCensus || bytes.Contains(journal, []byte(`"type":"census"`))
			for n := 0; n <= len(journal); n++ {
				got, want := reduceWith(c, journal[:n], "scan"), reduceWith(c, journal[:n], "reference")
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cell %s, first %d of %d bytes:\n scan      %+v\n reference %+v", c.ID(), n, len(journal), got, want)
				}
			}
			full := reduceWith(c, journal, "scan")
			if full.err != "" || full.stats.Torn || full.stats.Trials != sp.Trials {
				t.Errorf("cell %s: whole journal reduced to %+v", c.ID(), full)
			}
			other := c
			other.Seed++
			if got, want := reduceWith(other, journal, "scan"), reduceWith(other, journal, "reference"); got.err == "" || !reflect.DeepEqual(got, want) {
				t.Errorf("cell %s with another seed:\n scan      %+v\n reference %+v", c.ID(), got, want)
			}
		}
	}
	if !sawRetry || !sawAbort || !sawConv || !sawCensus {
		t.Errorf("journals lack a record kind: retry %t, abort %t, conv fault %t, census %t", sawRetry, sawAbort, sawConv, sawCensus)
	}
}

// fuzzCell is the cell FuzzReduceJournal reduces against: header seed
// 1 and a plan with two conv groups, so fault records fold into epochs.
var fuzzCell = Cell{Protocol: "counting", Engine: "agent", Pop: Pop{P: 6, N: 5}, Sched: "random", Init: "arbitrary",
	Fault: "@conv:reboot+corrupt=1,@conv:corrupt=1", Seed: 1}

// FuzzReduceJournal holds the scan-based reducer to oracleScan on
// arbitrary bytes: the same CellStats, torn flag and error, and no
// panic. Its checked-in seeds (testdata/fuzz) take each path the scan
// hands to encoding/json: an escaped key, a case-variant key, a
// duplicate key, a null and a mistyped reduced field, trailing bytes
// and blank lines.
func FuzzReduceJournal(f *testing.F) {
	f.Add(jobJournal(f, serve.Spec{
		Kind: serve.KindBatch, Protocol: fuzzCell.Protocol, P: fuzzCell.Pop.P, N: fuzzCell.Pop.N, Init: fuzzCell.Init,
		Faults: fuzzCell.Fault, Trials: 2, Stall: 204_800, Seed: fuzzCell.Seed,
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := reduceWith(fuzzCell, data, "scan"), reduceWith(fuzzCell, data, "oracle")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scan and oracle differ on %q:\n scan   %+v\n oracle %+v", data, got, want)
		}
		if got.err != "" && !strings.Contains(got.err, "does not match cell seed") {
			t.Errorf("reduce error %q", got.err)
		}
	})
}

// TestTableNumbersMatchFmt: the tables format numbers with strconv as
// the fmt verbs they replaced did: %.6g, %.3g, %.4f and %t.
func TestTableNumbersMatchFmt(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 2.0 / 3, 123456789, 1e21, 1e-7, 5e-324, 1<<53 + 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct{ got, want string }{
			{formatG(v, 6), fmt.Sprintf("%.6g", v)},
			{formatG(v, 3), fmt.Sprintf("%.3g", v)},
			{strconv.FormatFloat(v, 'f', 4, 64), fmt.Sprintf("%.4f", v)},
		} {
			if c.got != c.want {
				t.Errorf("%v formats as %q, fmt writes %q", v, c.got, c.want)
			}
		}
		for _, same := range []bool{false, true} {
			gotSame, gotD := (&KSResult{Same: same, D: v}).columns()
			if wantSame, wantD := fmt.Sprintf("%t", same), fmt.Sprintf("%.6g", v); gotSame != wantSame || gotD != wantD {
				t.Errorf("KS columns (%q, %q), fmt writes (%q, %q)", gotSame, gotD, wantSame, wantD)
			}
		}
	}
}
