package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Peer executes leases on a remote ppserved node over the v1 job API:
// POST /v1/jobs with the original spec plus shard:{lo,hi}, then GET
// /v1/jobs/{id}/results following the NDJSON stream to the terminal
// job record. A lease the node has already run is a cache hit, and the
// POST answers it with that stream, so a hit costs one request and a
// miss two. Peers own their health state: quarantineAfter
// consecutive failures quarantine the peer, and a passing /readyz
// probe readmits it (the probe doubles as the saturation signal — a
// peer answering 503 saturated takes no leases until it drains).
type Peer struct {
	// Base is the peer's base URL, e.g. "http://10.0.0.2:8080".
	Base string
	// Client is the HTTP client; nil uses a default with sane
	// timeouts (per-attempt deadlines come from the request context).
	Client *http.Client

	mu          sync.Mutex
	fails       int
	quarantined bool
}

// quarantineAfter is the consecutive-failure threshold at which a peer
// is quarantined.
const quarantineAfter = 3

// Name labels the peer in lease records.
func (p *Peer) Name() string { return p.Base }

func (p *Peer) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return http.DefaultClient
}

// Observe records an attempt outcome: a success resets the failure
// window, quarantineAfter consecutive failures quarantine the peer.
func (p *Peer) Observe(ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.fails = 0
		p.quarantined = false
		return
	}
	p.fails++
	if p.fails >= quarantineAfter {
		p.quarantined = true
	}
}

// Quarantined reports the current health verdict.
func (p *Peer) Quarantined() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quarantined
}

// Ready reports whether the peer may take a lease: a healthy peer
// answers true without traffic, a quarantined one is probed via
// /readyz and readmitted (failure window reset) when the probe
// passes.
func (p *Peer) Ready(ctx context.Context) bool {
	if !p.Quarantined() {
		return true
	}
	if !p.probe(ctx) {
		return false
	}
	p.mu.Lock()
	p.fails = 0
	p.quarantined = false
	p.mu.Unlock()
	return true
}

// probe is one /readyz round trip.
func (p *Peer) probe(ctx context.Context) bool {
	probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, p.Base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// RunBody executes one lease on the peer: submit body (the original
// job spec with shard set to the lease range, rendered by the serving
// layer so dist stays spec-schema-agnostic), follow the job's result
// stream to completion, and return the stream's body — the lines
// between the service header and the terminal job record, byte for
// byte. RunBody is the one reader of that envelope, so callers never
// see it. Any 5xx/429, connection drop, deadline, truncated NDJSON
// tail, missing header or non-done terminal record is an attempt
// failure — the coordinator re-issues the lease elsewhere. Peers
// deduplicate re-submissions of the same shard through their
// content-addressed result cache, so a re-issued lease that lands on a
// node that already ran it is answered from that run's stored stream,
// not re-simulated. The submit asks for NDJSON: a hit answers 200 with
// its finished stream in the same response, and only a miss (202, the
// job view) takes the second request. One long-lived Peer (with its
// health window) serves many jobs, each supplying its own bodies.
//
// With buf nil the lines are sliced out of an exact-size copy of the
// stream that the caller owns, as the coordinator, which keeps them
// until it merges, needs. Otherwise the stream is read into buf and
// the lines alias it until buf's next use: a caller that copies each
// stream out before it runs the next reuses one buffer.
func (p *Peer) RunBody(ctx context.Context, r Range, body []byte, buf *bytes.Buffer) ([][]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson, application/json")
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: submit %s: %w", r, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// A cache hit, answered by the done job that ran the lease: a
		// bad stream fails the attempt, and there is no running job to
		// cancel.
		lines, err := readShardStream(resp.Body, buf)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("dist: submit %s: cached stream: %w", r, err)
		}
		return lines, nil
	case http.StatusAccepted:
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("dist: submit %s: %s: %s", r, resp.Status, strings.TrimSpace(string(msg)))
	}
	var view struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&view)
	resp.Body.Close()
	if err != nil || view.ID == "" {
		return nil, fmt.Errorf("dist: submit %s: bad job view: %v", r, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, p.Base+"/v1/jobs/"+view.ID+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err = p.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: results %s: %w", r, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("dist: results %s: %s: %s", r, resp.Status, strings.TrimSpace(string(msg)))
	}
	lines, err := readShardStream(resp.Body, buf)
	if err != nil {
		// Best effort: stop the abandoned shard job so the peer's
		// workers drop it instead of finishing work nobody merges.
		p.cancelJob(view.ID)
		return nil, fmt.Errorf("dist: results %s: %w", r, err)
	}
	return lines, nil
}

// readBufs recycles the buffers owned result streams are read into.
// Each such stream is copied out at its exact size, so reading one
// leaves no growth garbage behind.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readShardStream reads a ppserved result stream into buf and returns
// its body, aliasing buf; with buf nil, into a pooled buffer, returning
// lines sliced out of one exact-size copy of the body. The envelope is
// positional — the server writes the header record first and the
// terminal job record last — so only those two lines are decoded; the
// lines between them are returned as read. A stream that is empty, cut
// mid-line (a half-written shard), missing its header or ending in
// anything but a job record in state done fails here rather than
// merging short.
func readShardStream(body io.Reader, buf *bytes.Buffer) ([][]byte, error) {
	owned := buf == nil
	if owned {
		buf = readBufs.Get().(*bytes.Buffer)
		defer readBufs.Put(buf)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if owned {
		data = bytes.Clone(data)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if tail := lines[len(lines)-1]; len(tail) > 0 {
		return nil, fmt.Errorf("truncated NDJSON tail (%d bytes)", len(tail))
	}
	lines = lines[:len(lines)-1]
	if len(lines) < 2 {
		return nil, fmt.Errorf("result stream has %d lines, want a header and a terminal record", len(lines))
	}
	var first, last struct {
		Type  string `json:"type"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Type != "header" {
		return nil, fmt.Errorf("result stream does not start with a header record")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return nil, fmt.Errorf("bad terminal record: %w", err)
	}
	if last.Type != "job" || last.State != "done" {
		return nil, fmt.Errorf("shard ended %s/%s: %s", last.Type, last.State, last.Error)
	}
	return lines[1 : len(lines)-1], nil
}

// cancelJob fires a best-effort cancel for an abandoned shard job.
func (p *Peer) cancelJob(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.Base+"/v1/jobs/"+id+"/cancel", nil)
	if err != nil {
		return
	}
	if resp, err := p.client().Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
}
