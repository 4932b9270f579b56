package serve

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"popnaming/internal/obs"
)

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promFamily is one metric family parsed out of an exposition.
type promFamily struct {
	name, typ string
	// samples maps a full sample name (family, family_bucket, ...) plus
	// rendered label set to its value.
	samples []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a strict text-format-0.0.4 checker: it fails the test
// on any ordering, naming, escaping or structural violation and
// returns the parsed families.
func parseProm(t *testing.T, body string) []promFamily {
	t.Helper()
	if body == "" || !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition empty or not newline-terminated")
	}
	var fams []promFamily
	seen := make(map[string]bool)
	var cur *promFamily
	pendingHelp := "" // HELP seen, TYPE not yet
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if pendingHelp != "" {
				fail("HELP %q not followed by its TYPE", pendingHelp)
			}
			rest := strings.TrimPrefix(line, "# HELP ")
			name, doc, ok := strings.Cut(rest, " ")
			if !ok || doc == "" {
				fail("HELP without docstring")
			}
			if !promNameRe.MatchString(name) {
				fail("invalid metric name %q", name)
			}
			if seen[name] {
				fail("family %q declared twice", name)
			}
			seen[name] = true
			pendingHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				fail("malformed TYPE")
			}
			name, typ := fields[0], fields[1]
			if name != pendingHelp {
				fail("TYPE %q does not follow its HELP (pending %q)", name, pendingHelp)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail("invalid type %q", typ)
			}
			fams = append(fams, promFamily{name: name, typ: typ})
			cur = &fams[len(fams)-1]
			pendingHelp = ""
		case strings.HasPrefix(line, "#"):
			fail("stray comment")
		default:
			if pendingHelp != "" {
				fail("sample before TYPE of %q", pendingHelp)
			}
			if cur == nil {
				fail("sample before any family")
			}
			s := parsePromSample(t, i+1, line)
			// Samples must belong to the family just declared: the
			// family name itself, or its histogram series suffixes.
			okNames := map[string]bool{cur.name: true}
			if cur.typ == "histogram" {
				okNames[cur.name+"_bucket"] = true
				okNames[cur.name+"_sum"] = true
				okNames[cur.name+"_count"] = true
			}
			if !okNames[s.name] {
				fail("sample %q under family %q (%s)", s.name, cur.name, cur.typ)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	if pendingHelp != "" {
		t.Fatalf("trailing HELP %q without TYPE", pendingHelp)
	}
	for _, f := range fams {
		if len(f.samples) == 0 {
			t.Errorf("family %q has no samples", f.name)
		}
		if f.typ == "histogram" {
			checkPromHistogram(t, f)
		}
	}
	return fams
}

// parsePromSample parses one `name{labels} value` line.
func parsePromSample(t *testing.T, lineno int, line string) promSample {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("line %d %q: %s", lineno, line, fmt.Sprintf(format, args...))
	}
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		fail("no value")
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !promNameRe.MatchString(s.name) {
		fail("invalid sample name %q", s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			fail("unterminated label set")
		}
		for _, pair := range splitPromLabels(t, lineno, line, rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !promLabelRe.MatchString(k) {
				fail("bad label pair %q", pair)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				fail("unquoted label value %q", v)
			}
			if _, dup := s.labels[k]; dup {
				fail("duplicate label %q", k)
			}
			s.labels[k] = unescapePromLabel(t, lineno, line, v[1:len(v)-1])
		}
		rest = rest[end+1:]
	}
	valueStr := strings.TrimPrefix(rest, " ")
	if valueStr == rest || valueStr == "" || strings.Contains(valueStr, " ") {
		fail("malformed value %q", rest)
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		fail("unparsable value %q: %v", valueStr, err)
	}
	s.value = v
	return s
}

// splitPromLabels splits a label body on commas outside quotes.
func splitPromLabels(t *testing.T, lineno int, line, body string) []string {
	t.Helper()
	if body == "" {
		return nil
	}
	var out []string
	start, inQuote, escaped := 0, false, false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, body[start:i])
			start = i + 1
		}
	}
	if inQuote {
		t.Fatalf("line %d %q: unterminated quote in labels", lineno, line)
	}
	return append(out, body[start:])
}

// unescapePromLabel validates and unescapes a label value: only \\,
// \" and \n escapes are legal, and no raw control bytes.
func unescapePromLabel(t *testing.T, lineno int, line, v string) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '\n' {
			t.Fatalf("line %d %q: raw newline in label value", lineno, line)
		}
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(v) {
			t.Fatalf("line %d %q: trailing backslash in label value", lineno, line)
		}
		switch v[i] {
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'n':
			sb.WriteByte('\n')
		default:
			t.Fatalf("line %d %q: invalid escape \\%c in label value", lineno, line, v[i])
		}
	}
	return sb.String()
}

// checkPromHistogram verifies every series of a histogram family: le
// bounds strictly increasing, bucket counts cumulative (non-
// decreasing), a mandatory +Inf bucket, and _sum/_count present with
// _count equal to the +Inf bucket.
func checkPromHistogram(t *testing.T, f promFamily) {
	t.Helper()
	type series struct {
		les     []float64
		counts  []float64
		inf     float64
		infSeen bool
		sum     float64
		sumSeen bool
		cnt     float64
		cntSeen bool
	}
	key := func(labels map[string]string) string {
		var parts []string
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	all := make(map[string]*series)
	get := func(labels map[string]string) *series {
		k := key(labels)
		if all[k] == nil {
			all[k] = &series{}
		}
		return all[k]
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket sample without le label", f.name)
			}
			sr := get(s.labels)
			if le == "+Inf" {
				sr.inf, sr.infSeen = s.value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: unparsable le %q", f.name, le)
			}
			sr.les = append(sr.les, bound)
			sr.counts = append(sr.counts, s.value)
		case f.name + "_sum":
			sr := get(s.labels)
			sr.sum, sr.sumSeen = s.value, true
		case f.name + "_count":
			sr := get(s.labels)
			sr.cnt, sr.cntSeen = s.value, true
		}
	}
	for k, sr := range all {
		name := f.name
		if k != "" {
			name += "{" + k + "}"
		}
		if !sr.infSeen {
			t.Errorf("%s: no +Inf bucket", name)
			continue
		}
		if !sr.sumSeen || !sr.cntSeen {
			t.Errorf("%s: missing _sum or _count", name)
			continue
		}
		prev := -1.0
		last := 0.0
		for i, le := range sr.les {
			if i > 0 && le <= prev {
				t.Errorf("%s: le bounds not increasing (%g after %g)", name, le, prev)
			}
			prev = le
			if sr.counts[i] < last {
				t.Errorf("%s: bucket counts not cumulative (%g after %g at le=%g)", name, sr.counts[i], last, le)
			}
			last = sr.counts[i]
		}
		if sr.inf < last {
			t.Errorf("%s: +Inf bucket %g below last bucket %g", name, sr.inf, last)
		}
		if sr.cnt != sr.inf {
			t.Errorf("%s: _count %g != +Inf bucket %g", name, sr.cnt, sr.inf)
		}
	}
}

// scrapeProm fetches /metrics?format=prometheus and checks the
// Content-Type.
func scrapeProm(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus content-type %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestPrometheusConformance runs jobs of several kinds, scrapes the
// exposition and holds it to the strict checker plus the required
// family inventory: phase histograms per job kind, runtime gauges,
// span and lifecycle counters.
func TestPrometheusConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	for _, spec := range []Spec{
		{Kind: KindSim, Protocol: "asym", P: 4, N: 4, Seed: 2, Budget: 100_000, Trace: true},
		{Kind: KindBatch, Protocol: "asym", P: 4, N: 4, Seed: 7, Trials: 2, Workers: 1, Budget: 100_000},
	} {
		status, view, _, _ := postJob(t, ts, spec)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		streamLines(t, ts, view.ID)
		waitState(t, ts, view.ID, StateDone, 30*time.Second)
	}

	body := scrapeProm(t, ts.URL)
	fams := parseProm(t, body)
	byName := make(map[string]promFamily, len(fams))
	for _, f := range fams {
		byName[f.name] = f
	}

	wantTyped := map[string]string{
		"ppserved_uptime_seconds":                    "gauge",
		"ppserved_workers":                           "gauge",
		"ppserved_workers_active":                    "gauge",
		"ppserved_queue_depth":                       "gauge",
		"ppserved_queue_capacity":                    "gauge",
		"ppserved_queue_high_watermark":              "gauge",
		"ppserved_draining":                          "gauge",
		"ppserved_ready":                             "gauge",
		"ppserved_jobs":                              "gauge",
		"ppserved_jobs_submitted_total":              "counter",
		"ppserved_jobs_rejected_total":               "counter",
		"ppserved_jobs_completed_total":              "counter",
		"ppserved_jobs_failed_total":                 "counter",
		"ppserved_jobs_canceled_total":               "counter",
		"ppserved_spans_total":                       "counter",
		"ppserved_job_wall_milliseconds":             "histogram",
		"ppserved_job_queue_wait_microseconds":       "histogram",
		"ppserved_job_exec_milliseconds":             "histogram",
		"ppserved_job_stream_milliseconds":           "histogram",
		"ppserved_http_requests_total":               "counter",
		"ppserved_http_request_latency_microseconds": "histogram",
		"ppserved_trials_total":                      "counter",
		"ppserved_trials_converged_total":            "counter",
		"ppserved_interactions_total":                "counter",
		"ppserved_interactions_non_null_total":       "counter",
		"go_goroutines":                              "gauge",
		"go_heap_alloc_bytes":                        "gauge",
		"go_heap_objects":                            "gauge",
		"go_gc_cycles_total":                         "counter",
		"go_gc_pause_seconds_total":                  "counter",
	}
	for name, typ := range wantTyped {
		f, ok := byName[name]
		if !ok {
			t.Errorf("missing family %q", name)
			continue
		}
		if f.typ != typ {
			t.Errorf("family %q type %q, want %q", name, f.typ, typ)
		}
	}

	// The per-kind phase histograms carry one series per job kind, and
	// the kinds that ran have observations.
	counts := make(map[string]float64)
	for _, s := range byName["ppserved_job_queue_wait_microseconds"].samples {
		if strings.HasSuffix(s.name, "_count") {
			counts[s.labels["kind"]] = s.value
		}
	}
	for _, kind := range jobKinds {
		if _, ok := counts[kind]; !ok {
			t.Errorf("queue-wait histogram missing kind %q", kind)
		}
	}
	if counts[KindSim] < 1 || counts[KindBatch] < 1 {
		t.Errorf("queue-wait counts %v, want sim and batch >= 1", counts)
	}

	// The traced sim job emitted spans, and both jobs completed.
	sampleValue := func(fam string) float64 {
		fs := byName[fam].samples
		if len(fs) != 1 {
			t.Fatalf("family %q has %d samples, want 1", fam, len(fs))
		}
		return fs[0].value
	}
	if v := sampleValue("ppserved_spans_total"); v < 4 {
		t.Errorf("ppserved_spans_total %g, want >= 4", v)
	}
	if v := sampleValue("ppserved_jobs_completed_total"); v != 2 {
		t.Errorf("ppserved_jobs_completed_total %g, want 2", v)
	}
	if v := sampleValue("ppserved_ready"); v != 1 {
		t.Errorf("ppserved_ready %g, want 1", v)
	}
}

// TestPrometheusScrapeRace hammers the prometheus endpoint while a
// traced batch job runs, so the race detector (make race) checks
// scraping against concurrent span emission and metric writes; every
// scrape must still pass the strict checker.
func TestPrometheusScrapeRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	status, view, _, _ := postJob(t, ts, Spec{
		Kind: KindBatch, Protocol: "asym", P: 4, N: 4,
		Seed: 9, Trials: 6, Workers: 2, Budget: 400_000, Trace: true,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				parseProm(t, scrapeProm(t, ts.URL))
			}
		}()
	}
	streamLines(t, ts, view.ID)
	waitState(t, ts, view.ID, StateDone, 60*time.Second)
	close(stop)
	wg.Wait()
	parseProm(t, scrapeProm(t, ts.URL))
}
