package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	rbcast "repro"
)

// sameAsMarshal requires body to be exactly json.Marshal(v) plus the
// newline every JSON body and NDJSON line ends with.
func sameAsMarshal(t *testing.T, what string, body []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("%s differs from encoding/json:\n got %.300s\nwant %.300s", what, body, want)
	}
}

// decodeInto strictly decodes one JSON value.
func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	if err := decodeJSON(r, v); err != nil {
		t.Fatalf("decoding %.200s: %v", data, err)
	}
}

func floodScenario() RunRequest {
	return RunRequest{
		Config: rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2},
	}
}

// TestRenderedBodiesMatchEncodingJSON: every body that carries a Result —
// /v1/run on miss and hit, each /v1/sweep line and
// /v1/jobs/{id} running and done — is byte-identical to encoding/json's
// rendering of the value it decodes to. Decoding is lossless, so this is
// the wire contract the packed renderer must keep.
func TestRenderedBodiesMatchEncodingJSON(t *testing.T) {
	// The runner holds executions only once the batch below arms the
	// gate: the sweeps run first through the same runner.
	release := make(chan struct{})
	var gated atomic.Bool
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, o rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			if gated.Load() {
				<-release
			}
			return rbcast.RunSweepJobs(jobs, o)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rgg := RunRequest{Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 40, RGGRadius: 0.3, TopologySeed: 3,
		Protocol: rbcast.ProtocolFlood, Value: 1}}
	for _, req := range []RunRequest{testScenario(), tracedScenario(), floodScenario(), rgg} {
		var first []byte
		for _, cache := range []string{"miss", "hit"} {
			resp, body := postJSON(t, ts, "/v1/run", req)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Rbcast-Cache") != cache {
				t.Fatalf("run: status %d, cache %q, want 200 %s: %.200s", resp.StatusCode, resp.Header.Get("X-Rbcast-Cache"), cache, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("run content type %q", ct)
			}
			var rr RunResponse
			decodeInto(t, body, &rr)
			sameAsMarshal(t, "/v1/run "+cache, body, rr)
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Error("cache hit body differs from the miss body")
			}
		}
	}

	// A sweep with cached, fresh and failed elements: T = -1 is invalid.
	sweep := SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolCPA, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{Ts: []int{-1, 1}, CrashRounds: []int{1, 2}},
	}
	postJSON(t, ts, "/v1/sweep", sweep) // fills the cache
	sweep.Axes.CrashRounds = append(sweep.Axes.CrashRounds, 3)
	resp, body := postJSON(t, ts, "/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if len(lines) != 8 {
		t.Fatalf("sweep streamed %d lines, want header + 6 elements + trailer", len(lines))
	}
	var kinds = map[string]int{}
	for i, line := range lines[1 : len(lines)-1] {
		var el SweepElement
		decodeInto(t, line, &el)
		sameAsMarshal(t, "sweep element", line, el)
		switch {
		case el.Error != "":
			kinds["error"]++
		case el.Cached:
			kinds["cached"]++
		default:
			kinds["fresh"]++
		}
		if el.Index != i {
			t.Errorf("line %d carries index %d", i, el.Index)
		}
	}
	if kinds["error"] != 3 || kinds["cached"] != 2 || kinds["fresh"] != 1 {
		t.Errorf("sweep element kinds %v, want 3 error, 2 cached, 1 fresh", kinds)
	}

	// A batch with a cached element, a within-batch duplicate, an invalid
	// element and a traced one, read while running and once done.
	bad := testScenario()
	bad.Config.T = -1
	gated.Store(true)
	ack := submitBatch(t, ts, []RunRequest{testScenario(), floodScenario(), floodScenario(), bad, otherScenario(2)})
	resp, body = getBody(t, ts, ack.StatusURL)
	var running JobStatus
	decodeInto(t, body, &running)
	if resp.StatusCode != http.StatusOK || running.State != "running" {
		t.Fatalf("job status %d, state %q, want a running job", resp.StatusCode, running.State)
	}
	sameAsMarshal(t, "running job", body, running)
	close(release)
	done := pollJob(t, ts, ack.ID)
	_, body = getBody(t, ts, ack.StatusURL)
	decodeInto(t, body, &done)
	sameAsMarshal(t, "done job", body, done)
	if len(done.Results) != 5 || done.Results[3].Error == "" || !done.Results[2].Cached {
		t.Errorf("done job results do not cover error and duplicate elements: %.300s", body)
	}
}

// TestElementRenderingEscapesLikeEncodingJSON covers the element fields the
// HTTP paths above rarely reach: error text that needs escaping, partial
// results, and the exported wire types built by hand.
func TestElementRenderingEscapesLikeEncodingJSON(t *testing.T) {
	res, err := rbcast.Run(testScenario().Config, testScenario().Plan)
	if err != nil {
		t.Fatal(err)
	}
	packed := res.Pack()
	for _, msg := range []string{
		"", "plain", `quote " and \ backslash`, "<tag> & amp", "tab\tnewline\n\x00\x1f\x7f",
		"café   ", "bad utf8 \xff\xfe", "job \"x\" failed: context deadline exceeded",
	} {
		if got, want := appendJSONString(nil, msg), mustMarshal(t, msg); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", msg, got, want)
		}
		for _, e := range []element{
			{fp: "abc", res: &packed, err: msg, partial: true},
			{fp: msg, err: msg, cached: true},
			{fp: "f", res: &packed, cached: true},
		} {
			line, err := appendSweepElement(nil, 7, &e)
			if err != nil {
				t.Fatal(err)
			}
			sameAsMarshal(t, "sweep element", line, SweepElement{Index: 7, Fingerprint: e.fp, Result: resultOf(e.res),
				Error: e.err, Cached: e.cached, Partial: e.partial})
		}
	}
	job := &batchJob{id: "job-<1>", n: 2}
	results := []element{{fp: "a", res: &packed}, {fp: "b", err: "boom"}}
	body, err := appendJobStatus(nil, job, "done", results)
	if err != nil {
		t.Fatal(err)
	}
	sameAsMarshal(t, "job status", body, JobStatus{ID: job.id, State: "done", Jobs: 2, Results: []JobResult{
		{Fingerprint: "a", Result: &res}, {Fingerprint: "b", Error: "boom"}}})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func resultOf(p *rbcast.PackedResult) *rbcast.Result {
	if p == nil {
		return nil
	}
	r := p.Result()
	return &r
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// runHitAllocs is the allocation count of one /v1/run cache hit of
// floodScenario through Server.ServeHTTP: request decode, fingerprint,
// cache read and the packed render of its 47 KB body. Before the packed
// cache, the json.Marshal re-render alone cost about 4,300 allocations.
const runHitAllocs = 31

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation and randomly dropping sync.Pool change allocation counts.
var raceEnabled bool

// TestRunHitAllocs pins the allocation count of a /v1/run cache hit.
func TestRunHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	srv := New(Options{})
	body := mustMarshal(t, floodScenario())
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", io.NopCloser(rd))
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.header)
		srv.ServeHTTP(w, req)
	}
	serve() // the miss that fills the cache
	serve()
	if w.status != http.StatusOK || w.header.Get("X-Rbcast-Cache") != "hit" {
		t.Fatalf("status %d, cache %q: want a 200 cache hit", w.status, w.header.Get("X-Rbcast-Cache"))
	}
	if allocs := testing.AllocsPerRun(50, serve); allocs > runHitAllocs {
		t.Errorf("a /v1/run cache hit allocates %.0f times, pinned at %d", allocs, runHitAllocs)
	} else {
		t.Logf("a /v1/run cache hit allocates %.0f times (pinned at %d)", allocs, runHitAllocs)
	}
}

// failingWriter accepts its first ok writes, then fails every write; it
// counts the writes attempted.
type failingWriter struct {
	discardWriter
	ok, writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errors.New("client went away")
	}
	return len(p), nil
}

// TestSweepStopsWhenClientLeaves: a sweep stream whose writes start failing
// after the header line renders no further element.
func TestSweepStopsWhenClientLeaves(t *testing.T) {
	srv := New(Options{})
	body := mustMarshal(t, SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{CrashRounds: []int{1, 2, 3, 4, 5, 6}},
	})
	w := &failingWriter{discardWriter: discardWriter{header: http.Header{}}, ok: 1}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	// One header line, then the first element's failed write; the five
	// remaining elements and the trailer are never rendered.
	if w.writes != 2 {
		t.Errorf("sweep attempted %d writes after the client left, want 2 (header, first element)", w.writes)
	}
}

// TestSweepSimRunsCountsSimulations: a sweep adds the simulations it ran to
// rbcastd_sim_runs_total, not one run per distinct fingerprint, and leaves
// the per-run traffic totals to /v1/run and /v1/batch. Flood ignores T, so
// the three elements of this grid share one simulation.
func TestSweepSimRunsCountsSimulations(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/sweep", SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2},
		},
		Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_, elements, trailer := decodeSweepStream(t, body)
	if len(elements) != 3 || trailer.Stats.Simulations != 1 {
		t.Fatalf("%d elements, %d simulations: want 3 elements sharing 1 simulation", len(elements), trailer.Stats.Simulations)
	}
	_, metrics := getBody(t, ts, "/metrics")
	for _, want := range []string{"rbcastd_sim_runs_total 1\n", "rbcastd_sim_broadcasts_total 0\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
}
