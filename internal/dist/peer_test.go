package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"popnaming/internal/obs"
)

// peerStreamRange is the lease of testdata/peer_stream.ndjson: a real
// ppserved result stream for the shard [1,3) of a 4-trial asym batch
// run on two workers (header, per-trial progress and summary records,
// the shard's batch_summary, the terminal job record).
var peerStreamRange = Range{1, 3}

func readPeerStream(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/peer_stream.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReadShardStream(t *testing.T) {
	const (
		header = `{"v":1,"type":"header","tool":"ppserved","seed":11}` + "\n"
		rec    = `{"v":1,"type":"summary","trial":1,"steps":84}` + "\n"
		sum    = `{"v":1,"type":"batch_summary","trials":1}` + "\n"
		done   = `{"v":1,"type":"job","id":"j1","state":"done"}` + "\n"
	)
	cases := []struct {
		name   string
		stream string
		body   []string // the lines between the envelope records
		fail   bool
	}{
		{name: "body", stream: header + rec + sum + done, body: []string{rec, sum}},
		{name: "no body", stream: header + done, body: []string{}},
		{name: "empty", stream: "", fail: true},
		{name: "one line", stream: done, fail: true},
		{name: "no header", stream: rec + sum + done, fail: true},
		{name: "truncated tail", stream: header + rec + strings.TrimSuffix(sum, "\n"), fail: true},
		{name: "no terminal record", stream: header + rec + sum, fail: true},
		{name: "failed", stream: header + rec + `{"v":1,"type":"job","state":"failed","error":"boom"}` + "\n", fail: true},
		{name: "canceled", stream: header + rec + `{"v":1,"type":"job","state":"canceled"}` + "\n", fail: true},
	}
	// Each case reads into an owned copy, and into one buffer reused
	// across the cases.
	var reused bytes.Buffer
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, buf := range []*bytes.Buffer{nil, &reused} {
				t.Run(fmt.Sprintf("reused=%v", buf != nil), func(t *testing.T) {
					got, err := readShardStream(strings.NewReader(c.stream), buf)
					if c.fail {
						if err == nil {
							t.Fatalf("accepted %q as %q", c.stream, got)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(c.body) {
						t.Fatalf("got %d lines %q, want %q", len(got), got, c.body)
					}
					for i := range got {
						if string(got[i]) != c.body[i] {
							t.Fatalf("line %d = %q, want %q", i, got[i], c.body[i])
						}
					}
				})
			}
		})
	}
}

// fakeNodes are the two answers a ppserved node gives the peer
// client's submit: a hit streams the finished job in the POST's 200
// response, a miss answers 202 with the job view and serves the stream
// on GET /results.
var fakeNodes = []struct {
	name     string
	hit      bool
	requests int32 // the requests one RunBody makes
}{
	{name: "hit", hit: true, requests: 1},
	{name: "miss", requests: 2},
}

// fakePeer serves one job over the v1 routes the peer client uses:
// with hit, the POST answers with stream; otherwise the results request
// does. It counts the requests and, separately, the cancels.
func fakePeer(t *testing.T, stream []byte, hit bool) (p *Peer, requests, cancels *atomic.Int32) {
	t.Helper()
	requests, cancels = new(atomic.Int32), new(atomic.Int32)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", "/v1/jobs/j9")
		if hit && strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(stream)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j9"}`))
	})
	mux.HandleFunc("GET /v1/jobs/j9/results", func(w http.ResponseWriter, r *http.Request) {
		w.Write(stream)
	})
	mux.HandleFunc("POST /v1/jobs/j9/cancel", func(w http.ResponseWriter, r *http.Request) {
		cancels.Add(1)
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return &Peer{Base: ts.URL}, requests, cancels
}

// TestRunBodyStripsEnvelope pins the peer client's contract on a real
// result stream: RunBody returns the lines between the header and the
// terminal record byte for byte, and those lines normalize as a shard
// of the lease — in one request when the node answers the submit with
// the stream (a cache hit), in two when it answers 202 (a miss).
func TestRunBodyStripsEnvelope(t *testing.T) {
	stream := readPeerStream(t)
	lines := bytes.SplitAfter(stream, []byte("\n"))
	want := lines[1 : len(lines)-2] // SplitAfter leaves an empty tail
	for _, node := range fakeNodes {
		t.Run(node.name, func(t *testing.T) {
			p, requests, cancels := fakePeer(t, stream, node.hit)
			body, err := p.RunBody(context.Background(), peerStreamRange, []byte(`{}`), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(body) != len(want) {
				t.Fatalf("got %d body lines, want %d", len(body), len(want))
			}
			for i := range want {
				if !bytes.Equal(body[i], want[i]) {
					t.Fatalf("body line %d = %q, want %q", i, body[i], want[i])
				}
			}
			if _, _, err := normalizeShard(body, peerStreamRange); err != nil {
				t.Fatal(err)
			}
			if n := requests.Load(); n != node.requests {
				t.Fatalf("RunBody made %d requests, want %d", n, node.requests)
			}
			if n := cancels.Load(); n != 0 {
				t.Fatalf("completed job canceled %d times", n)
			}
		})
	}
}

// TestRunBodyCancelsOnBadStream pins the failure path: a stream that
// breaks the envelope contract fails the attempt on either answer to
// the submit, and the abandoned job of a miss is canceled on the peer.
// A hit is answered by a job that is already done, so there is
// nothing to cancel.
func TestRunBodyCancelsOnBadStream(t *testing.T) {
	stream := readPeerStream(t)
	lastNL := bytes.LastIndexByte(stream[:len(stream)-1], '\n')
	for _, bad := range []struct {
		name   string
		stream []byte
	}{
		{"headerless", stream[bytes.IndexByte(stream, '\n')+1:]},
		{"truncated", stream[:len(stream)/2]},
		{"not done", append(bytes.Clone(stream[:lastNL+1]), `{"v":1,"type":"job","id":"j9","state":"failed","error":"boom"}`+"\n"...)},
	} {
		for _, node := range fakeNodes {
			t.Run(bad.name+"/"+node.name, func(t *testing.T) {
				p, requests, cancels := fakePeer(t, bad.stream, node.hit)
				if _, err := p.RunBody(context.Background(), peerStreamRange, []byte(`{}`), nil); err == nil {
					t.Fatalf("%s stream accepted", bad.name)
				}
				want := int32(1)
				if node.hit {
					want = 0
				}
				if n := cancels.Load(); n != want {
					t.Fatalf("abandoned job canceled %d times, want %d", n, want)
				}
				if n := requests.Load() - cancels.Load(); n != node.requests {
					t.Fatalf("RunBody made %d requests, want %d", n, node.requests)
				}
			})
		}
	}
}

// FuzzPeerStream feeds arbitrary bytes through the coordinator's view
// of a peer's result stream: the stream reader, then normalization as
// the shard of a fixed lease. Every input must fail with an error or
// yield a shard that keeps every body line and ends with a
// batch_summary covering exactly the lease; none may panic.
func FuzzPeerStream(f *testing.F) {
	stream := readPeerStream(f)
	lines := bytes.SplitAfter(stream, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	join := func(idx ...int) []byte {
		var b []byte
		for _, i := range idx {
			b = append(b, lines[i]...)
		}
		return b
	}
	// lines: 0 header, 1-2 trial 1, 3-4 trial 2, 5 batch_summary, 6 job.
	f.Add(stream)
	f.Add(stream[:len(stream)/2])                // cut mid-line
	f.Add(stream[:len(stream)-1])                // terminal record unterminated
	f.Add(join(0, 1, 2, 3, 4, 5))                // terminal record missing
	f.Add(join(1, 2, 3, 4, 5, 6))                // header missing
	f.Add(join(0, 3, 4, 1, 2, 5, 6))             // trials out of order
	f.Add(join(0, 5, 1, 2, 3, 4, 6))             // summary first
	f.Add(join(0, 1, 2, 3, 4, 5, 5, 6))          // summary twice
	f.Add(join(6, 1, 2, 3, 4, 5, 0))             // envelope swapped
	f.Add(join(0, 1, 2, 3, 4, 6))                // summary missing
	f.Add(join(0, 1, 2, 3, 4, 5, 6, 1, 2, 5, 6)) // stream replayed past its end
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readShardStream(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		shard, sum, err := normalizeShard(body, peerStreamRange)
		if err != nil {
			return
		}
		if len(shard) != len(body) {
			t.Fatalf("shard has %d lines, body %d", len(shard), len(body))
		}
		var last obs.BatchSummaryRec
		if err := json.Unmarshal(shard[len(shard)-1], &last); err != nil || last.Type != "batch_summary" {
			t.Fatalf("shard ends with %q (err %v), want its batch_summary", shard[len(shard)-1], err)
		}
		want := peerStreamRange.Hi - peerStreamRange.Lo
		if last.Trials != want || sum.Trials != want {
			t.Fatalf("summary covers %d trials (decoded %d), want %d", last.Trials, sum.Trials, want)
		}
	})
}
