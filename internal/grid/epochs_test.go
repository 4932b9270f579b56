package grid

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"popnaming/internal/obs"
	"popnaming/internal/serve"
)

// jobJournal runs a batch job in-process into a journal headed as a
// grid cell's.
func jobJournal(t testing.TB, spec serve.Spec) []byte {
	t.Helper()
	p, err := serve.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	sink.Emit(p.Header(Tool))
	p.Run(context.Background(), sink)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// foldJob runs a batch job in-process and reduces its journal as a cell
// carrying the job's fault plan.
func foldJob(t *testing.T, spec serve.Spec) CellStats {
	t.Helper()
	c := Cell{Protocol: spec.Protocol, Pop: Pop{P: spec.P, N: spec.N}, Init: spec.Init, Fault: spec.Faults, Seed: spec.Seed}
	cs, err := reduceCell(c, jobJournal(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestEpochTableE22Pin holds the epoch reducer to the multi-epoch
// stabilization experiment it replaced: the six arbitrary-init registry
// protocols, run as plain batch jobs at seed 1 (P = 6; N = 6, or N = 5
// with a leader reboot joined to every corruption for the protocols
// whose leader must be initialized) and folded per epoch, reproduce
// that experiment's seed-1 table cell for cell. The rows are the E22
// table EXPERIMENTS.md keeps as the reference.
func TestEpochTableE22Pin(t *testing.T) {
	if testing.Short() {
		t.Skip("six fault campaigns")
	}
	want := map[string][4][2]int64{ // epoch: {median, max}
		"asym":      {{182, 230}, {207, 302}, {183, 295}, {175, 189}},
		"counting":  {{300, 397}, {328, 404}, {321, 406}, {303, 403}},
		"globalp":   {{300, 397}, {328, 404}, {321, 406}, {303, 403}},
		"selfstab":  {{551, 1004}, {820, 1204}, {936, 1198}, {966, 1157}},
		"ssle":      {{182, 230}, {207, 302}, {183, 295}, {175, 189}},
		"symglobal": {{360, 1281}, {311, 732}, {354, 812}, {337, 1116}},
	}
	for proto, rows := range want {
		spec := serve.Spec{
			Kind: serve.KindBatch, Protocol: proto, P: 6, N: 6, Init: "arbitrary",
			Faults: "@conv:corrupt=2,@conv:corrupt=2,@conv:corrupt=2",
			Trials: 10, Budget: 50_000_000, Stall: 294_912, Seed: 1,
		}
		if proto == "counting" || proto == "globalp" {
			spec.N, spec.Stall = 5, 204_800
			spec.Faults = "@conv:reboot+corrupt=2,@conv:reboot+corrupt=2,@conv:reboot+corrupt=2"
		}
		cs := foldJob(t, spec)
		if cs.Aborted != 0 || cs.Retried != 0 {
			t.Errorf("%s: %d aborted, %d retried", proto, cs.Aborted, cs.Retried)
		}
		if len(cs.Epochs) != 4 {
			t.Fatalf("%s: %d epochs, want 4", proto, len(cs.Epochs))
		}
		for e, row := range rows {
			got := cs.Epochs[e]
			if got.Epoch != e || got.Trials != 10 || got.Failures != 0 || got.MedianSteps != row[0] || got.MaxSteps != row[1] {
				t.Errorf("%s epoch %d: %+v, want 10 trials, 0 failures, median %d, max %d", proto, e, got, row[0], row[1])
			}
		}
	}
}

// TestEpochTable folds hand-built journals: a joined group is one
// boundary, a retry drops the failed attempt's boundaries, an invalid
// conv record or final summary fails its epoch, and so does an epoch a
// trial never reached; records without validNaming (journals written
// before the field) fail nothing. Each epoch of a later fault plan is
// KS-compared with the baseline's same epoch. A cell set without a
// conv plan has no epoch table, allocates nothing for it and writes no
// epochs files.
func TestEpochTable(t *testing.T) {
	yes, no := true, false
	conv := func(trial int, step int64, kind string, valid *bool) obs.FaultRec {
		rec := obs.NewFaultRec(trial, step, kind, 1, "conv")
		rec.ValidNaming = valid
		return rec
	}
	summary := func(trial int, steps uint64, converged bool, valid *bool) obs.Summary {
		return obs.Summary{V: obs.Version, Type: "summary", Trial: trial, Steps: steps, Converged: converged, ValidNaming: valid}
	}
	retry := obs.NewFaultRec(1, 900, "retry", 0, "stall")
	retry.Attempt = 1
	recs := []any{
		// Trial 0: two joined groups, each one boundary.
		conv(0, 100, "reboot", &yes), conv(0, 100, "corrupt", &yes),
		conv(0, 250, "reboot", &yes), conv(0, 250, "corrupt", &yes),
		summary(0, 400, true, &yes),
		// Trial 1: a stalled attempt's boundary, dropped by its retry;
		// the second attempt converges to an invalid naming.
		conv(1, 500, "reboot", &yes), summary(1, 900, false, &no), retry,
		conv(1, 120, "reboot", &yes), conv(1, 300, "reboot", &yes),
		summary(1, 420, true, &no),
		// Trial 2: its first epoch ends in an invalid naming, and it
		// never reaches the last.
		conv(2, 80, "reboot", &no), conv(2, 200, "reboot", &yes),
		summary(2, 50_000, false, &no),
		// Trial 4: no validity recorded anywhere, every epoch measured.
		conv(4, 100, "reboot", nil), conv(4, 100, "corrupt", nil),
		conv(4, 300, "reboot", nil), conv(4, 300, "corrupt", nil),
		summary(4, 500, true, nil),
		obs.BatchSummaryRec{V: obs.Version, Type: "batch_summary", Trials: 5, Converged: 3, Retried: 1},
	}
	var journal bytes.Buffer
	sink := obs.NewJournalSink(&journal)
	for _, r := range recs {
		sink.Emit(r)
	}
	const plan = "@conv:reboot+corrupt=1,@conv:reboot+corrupt=1"
	sp := parse(t, `{"protocols":["counting"],"populations":[{"p":6,"n":5}],"faults":["`+plan+`"],"seed":1}`)
	cs, err := reduceCell(sp.Cells()[0], journal.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Five trials: trial 3 left no record, so it fails every epoch.
	want := []EpochStat{
		{Epoch: 0, Trials: 3, Failures: 2, MedianSteps: 100, MaxSteps: 120, Steps: []float64{100, 100, 120}},
		{Epoch: 1, Trials: 4, Failures: 1, MedianSteps: 180, MaxSteps: 200, Steps: []float64{120, 150, 180, 200}},
		{Epoch: 2, Trials: 2, Failures: 3, MedianSteps: 200, MaxSteps: 200, Steps: []float64{150, 200}},
	}
	if fmt.Sprint(cs.Epochs) != fmt.Sprint(want) {
		t.Errorf("epochs %+v\nwant   %+v", cs.Epochs, want)
	}
	tab := EpochTable(sp, []CellStats{cs})
	if tab == nil {
		t.Fatal("no epoch table for a conv plan")
	}
	var csv bytes.Buffer
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	const row = `counting,6,5,random,"` + plan + `",`
	wantCSV := "protocol,p,n,sched,faults,epoch,trials,failures,steps_median,steps_max,aborted,retried,ks_same,ks_d\n" +
		row + "0,3,2,100,120,0,1,,\n" +
		row + "1,4,1,180,200,0,1,,\n" +
		row + "2,2,3,200,200,0,1,,\n"
	if csv.String() != wantCSV {
		t.Errorf("epoch CSV:\n%s\nwant:\n%s", csv.String(), wantCSV)
	}

	// A later fault plan of the block compares each epoch with the
	// baseline's same epoch; an epoch the baseline lacks has no test.
	epochs := func(samples ...[]float64) []EpochStat {
		out := make([]EpochStat, len(samples))
		for e, st := range samples {
			out[e] = EpochStat{Epoch: e, Steps: st}
		}
		return out
	}
	block := []CellStats{
		{Cell: Cell{Index: 0}, Epochs: epochs([]float64{1, 2, 3}, []float64{10, 11, 12})},
		{Cell: Cell{Index: 1, FaultIdx: 1}, Epochs: epochs([]float64{1, 2, 3}, []float64{100, 110, 120}, []float64{5})},
	}
	wireKS(block)
	if ks := block[1].Epochs; ks[0].KS == nil || ks[0].KS.D != 0 || ks[1].KS == nil || ks[1].KS.D != 1 || ks[2].KS != nil {
		t.Errorf("epoch KS against the baseline: %+v %+v %+v", ks[0].KS, ks[1].KS, ks[2].KS)
	}
	if block[0].Epochs[1].KS != nil {
		t.Errorf("baseline epoch compared: %+v", block[0].Epochs[1].KS)
	}

	plain := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"faults":["","@50:corrupt=2"],"trials":2,"budget":200000,"seed":3}`)
	dir := t.TempDir()
	res, err := (&Campaign{Spec: plain, Runner: LocalRunner{}, Out: dir}).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res.Stats {
		if cs.Epochs != nil {
			t.Errorf("cell %s without a conv plan has epochs %+v", cs.Cell.ID(), cs.Epochs)
		}
	}
	if tab := EpochTable(plain, res.Stats); tab != nil {
		t.Errorf("epoch table without a conv plan:\n%s", tab)
	}
	if allocs := testing.AllocsPerRun(10, func() { EpochTable(plain, res.Stats) }); allocs != 0 {
		t.Errorf("EpochTable without a conv plan allocated %v times", allocs)
	}
	for _, ext := range []string{".txt", ".csv", ".tex"} {
		if _, err := os.Stat(filepath.Join(dir, "epochs"+ext)); !os.IsNotExist(err) {
			t.Errorf("campaign without a conv plan wrote epochs%s (stat: %v)", ext, err)
		}
	}
}
