package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"popnaming/internal/obs"
)

// mkShard builds a valid raw shard for a range, as an Executor returns
// it (no service envelope): one trial record per trial (tagged with
// the global index; trial 0 untagged, mirroring the omitempty
// fault-record encoding) plus a batch_summary line.
func mkShard(t *testing.T, r Range) [][]byte {
	t.Helper()
	var lines [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, append(b, '\n'))
	}
	for i := r.Lo; i < r.Hi; i++ {
		rec := map[string]any{"v": 1, "type": "trial", "converged": true, "steps": 10 * (i + 1)}
		if i != 0 {
			rec["trial"] = i
		}
		add(rec)
	}
	add(obs.BatchSummaryRec{V: 1, Type: "batch_summary", Trials: r.Hi - r.Lo,
		Converged: r.Hi - r.Lo, TotalSteps: int64(r.Hi-r.Lo) * 10, Workers: 1})
	return lines
}

func TestPlan(t *testing.T) {
	got := Plan(10, 3)
	want := []Range{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(got) != len(want) {
		t.Fatalf("plan %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan %v, want %v", got, want)
		}
	}
	if p := Plan(5, 0); len(p) != 1 || p[0] != (Range{0, 5}) {
		t.Fatalf("leaseTrials<=0: %v, want one full lease", p)
	}
	if p := Plan(3, 100); len(p) != 1 || p[0] != (Range{0, 3}) {
		t.Fatalf("oversized lease: %v, want one full lease", p)
	}
	if p := Plan(0, 4); p != nil {
		t.Fatalf("zero trials: %v, want nil", p)
	}
}

func TestBackoffDeterminism(t *testing.T) {
	a := &Coordinator{Seed: 42, Backoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second}
	b := &Coordinator{Seed: 42, Backoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second}
	for idx := 0; idx < 4; idx++ {
		for epoch := 0; epoch < 8; epoch++ {
			da, db := a.backoffDelay(idx, epoch), b.backoffDelay(idx, epoch)
			if da != db {
				t.Fatalf("jitter not deterministic: lease %d epoch %d: %v vs %v", idx, epoch, da, db)
			}
			base := 100 * time.Millisecond
			for i := 0; i < epoch && base < 5*time.Second; i++ {
				base *= 2
			}
			if base > 5*time.Second {
				base = 5 * time.Second
			}
			if da < base || da > base+base/2 {
				t.Fatalf("delay %v outside [%v, %v]", da, base, base+base/2)
			}
		}
	}
	c := &Coordinator{Seed: 43, Backoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second}
	same := true
	for epoch := 0; epoch < 8; epoch++ {
		if a.backoffDelay(0, epoch) != c.backoffDelay(0, epoch) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestNormalizeShard(t *testing.T) {
	r := Range{0, 3}
	raw := mkShard(t, r)
	shard, sum, err := normalizeShard(raw, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(shard) != 4 {
		t.Fatalf("got %d shard lines, want 3 workload lines plus the summary", len(shard))
	}
	if sum.Trials != 3 || sum.Converged != 3 {
		t.Fatalf("summary %+v", sum)
	}
	// The shard ends with the input's batch_summary, byte for byte.
	if got, want := shard[len(shard)-1], raw[len(raw)-1]; !bytes.Equal(got, want) {
		t.Fatalf("shard ends with %q, want the input summary %q", got, want)
	}
	// The untagged record folded to trial 0, so lines are already in
	// trial order: 0, 1, 2 by their steps payload.
	for i, line := range shard[:3] {
		var rec struct {
			Steps int `json:"steps"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Steps != 10*(i+1) {
			t.Fatalf("line %d out of trial order: steps %d", i, rec.Steps)
		}
	}

	// A shard carrying a trial outside its range is rejected.
	bad := mkShard(t, Range{2, 5})
	if _, _, err := normalizeShard(bad, Range{5, 8}); err == nil {
		t.Fatal("out-of-range trials accepted")
	}
	// A shard without its batch_summary is rejected.
	whole := mkShard(t, r)
	var noSum [][]byte
	for _, line := range whole {
		if !strings.Contains(string(line), "batch_summary") {
			noSum = append(noSum, line)
		}
	}
	if _, _, err := normalizeShard(noSum, r); err == nil {
		t.Fatal("summary-less shard accepted")
	}
	// A summary covering the wrong trial count is rejected.
	short := mkShard(t, Range{0, 2})
	if _, _, err := normalizeShard(short, r); err == nil {
		t.Fatal("short shard accepted")
	}
	// A second batch_summary is rejected.
	twice := append(mkShard(t, r), raw[len(raw)-1])
	if _, _, err := normalizeShard(twice, r); err == nil {
		t.Fatal("shard with two summaries accepted")
	}
	// A shard out of trial order is rejected, not re-sorted.
	whole = mkShard(t, r)
	swapped := [][]byte{whole[1], whole[0], whole[2], whole[3]}
	if _, _, err := normalizeShard(swapped, r); err == nil {
		t.Fatal("shard out of trial order accepted")
	}
	// A shard whose summary is not its last line is rejected.
	whole = mkShard(t, r)
	early := [][]byte{whole[0], whole[1], whole[3], whole[2]}
	if _, _, err := normalizeShard(early, r); err == nil {
		t.Fatal("shard with its summary before a trial accepted")
	}
}

func TestMergeSummaries(t *testing.T) {
	sums := []obs.BatchSummaryRec{
		{Trials: 3, Converged: 3, TotalSteps: 30, TotalNonNull: 20, Retried: 1,
			StepsHist: []obs.HistBucket{{Lo: 8, Hi: 15, Count: 2}, {Lo: 16, Hi: 31, Count: 1}}},
		{Trials: 2, Converged: 1, Aborted: 1, TotalSteps: 25, TotalNonNull: 15,
			StepsHist: []obs.HistBucket{{Lo: 4, Hi: 7, Count: 1}, {Lo: 8, Hi: 15, Count: 1}}},
	}
	got := MergeSummaries(sums, 4, 5, 123, 0.5)
	if got.Trials != 5 || got.Converged != 4 || got.Aborted != 1 || got.Retried != 1 {
		t.Fatalf("counters: %+v", got)
	}
	if got.TotalSteps != 55 || got.TotalNonNull != 35 {
		t.Fatalf("totals: %+v", got)
	}
	if got.Workers != 4 || got.WallNS != 123 || got.Utilization != 0.5 {
		t.Fatalf("env fields: %+v", got)
	}
	wantHist := []obs.HistBucket{{Lo: 4, Hi: 7, Count: 1}, {Lo: 8, Hi: 15, Count: 3}, {Lo: 16, Hi: 31, Count: 1}}
	if len(got.StepsHist) != len(wantHist) {
		t.Fatalf("hist %v, want %v", got.StepsHist, wantHist)
	}
	for i := range wantHist {
		if got.StepsHist[i] != wantHist[i] {
			t.Fatalf("hist %v, want %v", got.StepsHist, wantHist)
		}
	}
	// Workers clamps to the trial count, matching what a 1-node run
	// reports for a small batch.
	if g := MergeSummaries(sums, 64, 5, 0, 0); g.Workers != 5 {
		t.Fatalf("workers not clamped: %d", g.Workers)
	}
}

// fakeExec is a scriptable Executor for coordinator tests.
type fakeExec struct {
	name string
	run  func(ctx context.Context, r Range) ([][]byte, error)

	mu       sync.Mutex
	attempts []Range
	observes []bool
}

func (f *fakeExec) Name() string                   { return f.name }
func (f *fakeExec) Ready(ctx context.Context) bool { return true }
func (f *fakeExec) Observe(ok bool) {
	f.mu.Lock()
	f.observes = append(f.observes, ok)
	f.mu.Unlock()
}
func (f *fakeExec) Run(ctx context.Context, r Range) ([][]byte, error) {
	f.mu.Lock()
	f.attempts = append(f.attempts, r)
	f.mu.Unlock()
	return f.run(ctx, r)
}

func (f *fakeExec) ranges() []Range {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Range(nil), f.attempts...)
}

// collect wires a coordinator's Journal and Deliver into slices.
type collect struct {
	mu     sync.Mutex
	events []Event
	order  []int
	trials int
}

func (c *collect) journal(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *collect) deliver(lease int, r Range, lines [][]byte, sum obs.BatchSummaryRec) {
	c.mu.Lock()
	c.order = append(c.order, lease)
	c.trials += sum.Trials
	c.mu.Unlock()
}

func (c *collect) states(state string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.events {
		if ev.State == state {
			n++
		}
	}
	return n
}

func okExec(t *testing.T, name string) *fakeExec {
	return &fakeExec{name: name, run: func(ctx context.Context, r Range) ([][]byte, error) {
		return mkShard(t, r), nil
	}}
}

func TestCoordinatorDeliversInOrder(t *testing.T) {
	plan := Plan(10, 2)
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7,
		Peers:   []Executor{okExec(t, "p1"), okExec(t, "p2")},
		Journal: col.journal, Deliver: col.deliver,
	}
	if err := co.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if len(col.order) != len(plan) || col.trials != 10 {
		t.Fatalf("delivered %v covering %d trials", col.order, col.trials)
	}
	for i, l := range col.order {
		if l != i {
			t.Fatalf("delivery order %v not lease order", col.order)
		}
	}
	if got := col.states(StateCompleted); got != len(plan) {
		t.Fatalf("%d completed events, want %d", got, len(plan))
	}
}

func TestCoordinatorReissuesOnFailure(t *testing.T) {
	var failed atomic.Bool
	flaky := &fakeExec{name: "flaky", run: func(ctx context.Context, r Range) ([][]byte, error) {
		if failed.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("injected 500")
		}
		return mkShard(t, r), nil
	}}
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7,
		Peers:   []Executor{flaky},
		Retries: 3, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Journal: col.journal, Deliver: col.deliver,
	}
	if err := co.Run(context.Background(), Plan(4, 2)); err != nil {
		t.Fatal(err)
	}
	if col.trials != 4 {
		t.Fatalf("delivered %d trials, want 4", col.trials)
	}
	if col.states(StateFailed) == 0 || col.states(StateReissued) == 0 {
		t.Fatalf("no failed/reissued events: %+v", col.events)
	}
}

func TestCoordinatorLocalFallback(t *testing.T) {
	dead := &fakeExec{name: "dead", run: func(ctx context.Context, r Range) ([][]byte, error) {
		return nil, fmt.Errorf("connection refused")
	}}
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7,
		Local:   func(ctx context.Context, r Range) ([][]byte, error) { return mkShard(t, r), nil },
		Peers:   []Executor{dead},
		Retries: 1, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Journal: col.journal, Deliver: col.deliver,
	}
	if err := co.Run(context.Background(), Plan(6, 2)); err != nil {
		t.Fatal(err)
	}
	if col.trials != 6 {
		t.Fatalf("delivered %d trials, want 6", col.trials)
	}
}

func TestCoordinatorZeroPeersRunsLocal(t *testing.T) {
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7,
		Local:   func(ctx context.Context, r Range) ([][]byte, error) { return mkShard(t, r), nil },
		Journal: col.journal, Deliver: col.deliver,
	}
	if err := co.Run(context.Background(), Plan(5, 2)); err != nil {
		t.Fatal(err)
	}
	if col.trials != 5 {
		t.Fatalf("delivered %d trials, want 5", col.trials)
	}
}

func TestCoordinatorExhaustionWithoutLocalFails(t *testing.T) {
	dead := &fakeExec{name: "dead", run: func(ctx context.Context, r Range) ([][]byte, error) {
		return nil, fmt.Errorf("boom")
	}}
	co := &Coordinator{Job: "j1", Seed: 7,
		Peers:   []Executor{dead},
		Retries: 2, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}
	err := co.Run(context.Background(), Plan(2, 1))
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v, want exhaustion", err)
	}
}

func TestCoordinatorAtMostOnceAcceptance(t *testing.T) {
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7, Journal: col.journal, Deliver: col.deliver}
	co.done = make(chan struct{})
	r := Range{0, 2}
	co.leases = []*lease{{idx: 0, rng: r}}
	co.left = 1
	shard, sum, err := normalizeShard(mkShard(t, r), r)
	if err != nil {
		t.Fatal(err)
	}
	l, epoch0, ok := co.issue(0, "p1")
	if !ok {
		t.Fatal("issue refused")
	}
	// A second attempt starts (re-issue after a presumed timeout)...
	_, epoch1, ok := co.issue(0, "p2")
	if !ok || epoch1 == epoch0 {
		t.Fatalf("second issue: ok=%v epochs %d/%d", ok, epoch0, epoch1)
	}
	// ...the newer attempt completes first and wins.
	co.accept(l, epoch1, "p2", shard, sum)
	// The older attempt's late result must be discarded as a duplicate.
	co.accept(l, epoch0, "p1", shard, sum)
	if len(col.order) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(col.order))
	}
	if col.states(StateDuplicate) != 1 {
		t.Fatalf("duplicate events: %+v", col.events)
	}
}

func TestCoordinatorRestoredSkipsExecution(t *testing.T) {
	plan := Plan(6, 2)
	exec := okExec(t, "p1")
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7,
		Peers:   []Executor{exec},
		Journal: col.journal, Deliver: col.deliver,
		Restored: map[int][][]byte{
			0: mustNormalize(t, mkShard(t, plan[0]), plan[0]),
			// Lease 2's restored shard is corrupt: it must re-execute.
			2: {[]byte("not json\n")},
		},
	}
	if err := co.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if col.trials != 6 {
		t.Fatalf("delivered %d trials, want 6", col.trials)
	}
	if col.states(StateRestored) != 1 {
		t.Fatalf("restored events: %+v", col.events)
	}
	for _, r := range exec.ranges() {
		if r == plan[0] {
			t.Fatal("restored lease re-executed")
		}
	}
	seen2 := false
	for _, r := range exec.ranges() {
		if r == plan[2] {
			seen2 = true
		}
	}
	if !seen2 {
		t.Fatal("corrupt restored lease was not re-executed")
	}
}

func mustNormalize(t *testing.T, raw [][]byte, r Range) [][]byte {
	t.Helper()
	shard, _, err := normalizeShard(raw, r)
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

func TestCoordinatorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stuck := &fakeExec{name: "stuck", run: func(ctx context.Context, r Range) ([][]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	co := &Coordinator{Job: "j1", Seed: 7, Peers: []Executor{stuck}}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := co.Run(ctx, Plan(2, 1))
	if err == nil {
		t.Fatal("canceled run returned nil")
	}
}

func TestCoordinatorTimeoutBoundsAttempt(t *testing.T) {
	var slow atomic.Bool
	exec := &fakeExec{name: "slow-once", run: func(ctx context.Context, r Range) ([][]byte, error) {
		if slow.CompareAndSwap(false, true) {
			<-ctx.Done() // wedged peer: only the attempt deadline frees us
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("down")
	}}
	col := &collect{}
	co := &Coordinator{Job: "j1", Seed: 7,
		Local:   func(ctx context.Context, r Range) ([][]byte, error) { return mkShard(t, r), nil },
		Peers:   []Executor{exec},
		Timeout: func(Range) time.Duration { return 30 * time.Millisecond },
		Retries: 1, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Journal: col.journal, Deliver: col.deliver,
	}
	start := time.Now()
	if err := co.Run(context.Background(), Plan(2, 2)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedged peer held the run for %v", elapsed)
	}
	if col.trials != 2 {
		t.Fatalf("delivered %d trials, want 2", col.trials)
	}
}
