package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/obs"
)

// TestRouteHistBucketBoundaries pins the le-boundary convention: an
// observation exactly equal to a bucket's upper bound lands in that bucket
// (Prometheus le is inclusive), one nanosecond over lands in the next.
func TestRouteHistBucketBoundaries(t *testing.T) {
	for i, ub := range durationBuckets {
		d := time.Duration(math.Round(ub * 1e9))
		if d.Seconds() != ub {
			// The buckets are chosen so their bounds are exact in float64;
			// a bound that can't round-trip would make le=bound untestable.
			t.Fatalf("bucket bound %g does not round-trip through time.Duration", ub)
		}

		var at routeHist
		at.observe(d)
		cum, count, _ := at.snapshot()
		if count != 1 {
			t.Fatalf("ub %g: count = %d, want 1", ub, count)
		}
		for j := range cum {
			want := uint64(0)
			if j >= i {
				want = 1
			}
			if cum[j] != want {
				t.Errorf("ub %g: cumulative bucket %d = %d, want %d (== bound must land in its own bucket)",
					ub, j, cum[j], want)
			}
		}

		var over routeHist
		over.observe(d + time.Nanosecond)
		cum, _, _ = over.snapshot()
		if cum[i] != 0 {
			t.Errorf("ub %g: observation 1ns over the bound landed at or below it", ub)
		}
		if cum[i+1] != 1 {
			t.Errorf("ub %g: observation 1ns over the bound missed bucket %d: %v", ub, i+1, cum)
		}
	}

	// Beyond the last bound only +Inf counts it.
	var h routeHist
	h.observe(time.Hour)
	cum, count, sum := h.snapshot()
	last := len(cum) - 1
	if cum[last] != 1 || cum[last-1] != 0 || count != 1 {
		t.Errorf("over-range observation: cum = %v, count = %d", cum, count)
	}
	if sum != 3600 {
		t.Errorf("sum = %g, want 3600", sum)
	}
}

// TestDisarmedRequestContextUntouched proves the zero-cost discipline at
// the HTTP seam: with the flight recorder off, instrument must hand the
// handler the original *http.Request — no WithContext rewrap, no trace.
func TestDisarmedRequestContextUntouched(t *testing.T) {
	var counter atomic.Uint64
	hist := &routeHist{}
	var got *http.Request
	grab := func(w http.ResponseWriter, r *http.Request) { got = r }

	off := New(Options{})
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	off.instrument("/x", &counter, hist, true, grab)(httptest.NewRecorder(), req)
	if got != req {
		t.Error("disarmed instrument rewrapped the request")
	}
	if tr, _ := obs.SpanFromContext(got.Context()); tr != nil {
		t.Error("disarmed instrument put a trace in the context")
	}

	on := New(Options{FlightRecorder: 4})
	req = httptest.NewRequest(http.MethodGet, "/x", nil)
	on.instrument("/x", &counter, hist, true, grab)(httptest.NewRecorder(), req)
	if got == req {
		t.Error("armed instrument did not rewrap the request")
	}
	if tr, parent := obs.SpanFromContext(got.Context()); tr == nil || parent != obs.Root {
		t.Errorf("armed instrument context = (%v, %d), want a root-parented trace", tr, parent)
	}

	// A non-recording route stays trace-free even when armed.
	req = httptest.NewRequest(http.MethodGet, "/x", nil)
	on.instrument("/x", &counter, hist, false, grab)(httptest.NewRecorder(), req)
	if got != req {
		t.Error("non-recording route was rewrapped")
	}
}

func TestDebugRequestsTimelines(t *testing.T) {
	srv := New(Options{FlightRecorder: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/run", testScenario()) // miss: engine span
	postJSON(t, ts, "/v1/run", testScenario()) // hit: cache_hit span
	getBody(t, ts, "/healthz")                 // excluded route

	resp, body := getBody(t, ts, "/debug/requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dbg DebugRequestsResponse
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if !dbg.Enabled || dbg.Capacity != 8 || dbg.Stored != 2 || dbg.Total != 2 {
		t.Fatalf("recorder header = %+v", dbg)
	}
	if len(dbg.Requests) != 2 {
		t.Fatalf("got %d timelines, want 2", len(dbg.Requests))
	}
	// Newest first: the cache hit, then the miss.
	names := func(tl obs.TraceSnapshot) map[string]bool {
		m := make(map[string]bool, len(tl.Spans))
		for _, sp := range tl.Spans {
			m[sp.Name] = true
		}
		return m
	}
	hit, miss := dbg.Requests[0], dbg.Requests[1]
	for i, tl := range dbg.Requests {
		if tl.Route != "/v1/run" || tl.Status != http.StatusOK || tl.ID == "" || tl.DurationSeconds <= 0 {
			t.Errorf("timeline %d header = %+v", i, tl)
		}
	}
	if n := names(miss); !n["cache_miss"] || !n["engine"] || !n["encode"] {
		t.Errorf("miss timeline spans = %v, want cache_miss + engine + encode", n)
	}
	if n := names(hit); !n["cache_hit"] || n["engine"] {
		t.Errorf("hit timeline spans = %v, want cache_hit and no engine", n)
	}
	for _, tl := range dbg.Requests {
		for _, name := range []string{"/healthz", "/metrics", "/debug/requests"} {
			if tl.Route == name {
				t.Errorf("excluded route %s was recorded", name)
			}
		}
	}

	// Filters: ?n caps, ?min_ms filters without changing Stored, ?sort
	// orders slowest-first.
	_, body = getBody(t, ts, "/debug/requests?n=1")
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Requests) != 1 || dbg.Stored != 2 {
		t.Errorf("?n=1 returned %d timelines, stored %d", len(dbg.Requests), dbg.Stored)
	}
	_, body = getBody(t, ts, "/debug/requests?min_ms=3600000")
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Requests) != 0 || dbg.Stored != 2 {
		t.Errorf("?min_ms high-pass returned %d timelines, stored %d", len(dbg.Requests), dbg.Stored)
	}
	_, body = getBody(t, ts, "/debug/requests?sort=slowest")
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dbg.Requests); i++ {
		if dbg.Requests[i].DurationSeconds > dbg.Requests[i-1].DurationSeconds {
			t.Errorf("?sort=slowest out of order at %d", i)
		}
	}

	for _, q := range []string{"?min_ms=abc", "?sort=bogus", "?n=x", "?n=-1"} {
		resp, _ := getBody(t, ts, "/debug/requests"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestDebugRequestsDisabled(t *testing.T) {
	srv := New(Options{}) // FlightRecorder 0
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/run", testScenario())
	resp, body := getBody(t, ts, "/debug/requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dbg DebugRequestsResponse
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Enabled || dbg.Stored != 0 || dbg.Total != 0 || len(dbg.Requests) != 0 {
		t.Errorf("disabled recorder response = %+v", dbg)
	}
}

// TestPhaseSummariesAndRuntimeGauges: finished traces fold into the
// rbcastd_phase_seconds summaries, and the process-health gauges are
// always exposed.
func TestPhaseSummariesAndRuntimeGauges(t *testing.T) {
	srv := New(Options{FlightRecorder: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/run", testScenario())
	_, body := getBody(t, ts, "/metrics")
	text := string(body)

	for _, phase := range []string{"cache_miss", "engine", "encode"} {
		if !strings.Contains(text, fmt.Sprintf("rbcastd_phase_seconds_count{phase=%q} 1", phase)) {
			t.Errorf("exposition lacks phase count for %q:\n%s", phase, grepFamily(text, "rbcastd_phase_seconds"))
		}
		if !strings.Contains(text, fmt.Sprintf("rbcastd_phase_seconds_sum{phase=%q} ", phase)) {
			t.Errorf("exposition lacks phase sum for %q", phase)
		}
	}
	if !strings.Contains(text, "rbcastd_flight_recorder_requests_total 1") {
		t.Error("flight recorder total not exposed")
	}
	for _, gauge := range []string{"rbcastd_goroutines ", "rbcastd_heap_alloc_bytes ", "rbcastd_gc_pause_seconds_total "} {
		if !strings.Contains(text, gauge) {
			t.Errorf("exposition lacks runtime gauge %q", strings.TrimSpace(gauge))
		}
	}
}

// grepFamily pulls a metric family's lines out of an exposition for
// failure messages.
func grepFamily(text, name string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// decodeEvents reads a /v1/jobs/{id}/events stream to exhaustion.
func decodeEvents(t *testing.T, body io.Reader) []ProgressEvent {
	t.Helper()
	dec := json.NewDecoder(body)
	var events []ProgressEvent
	for {
		var ev ProgressEvent
		if err := dec.Decode(&ev); err != nil {
			if err != io.EOF {
				t.Fatalf("decoding event stream: %v", err)
			}
			return events
		}
		events = append(events, ev)
	}
}

// assertMonotoneToTerminal checks the stream contract: non-terminal events
// are "running", fields never regress, and the last event is the terminal
// one with every element accounted for.
func assertMonotoneToTerminal(t *testing.T, events []ProgressEvent, total int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, ev := range events {
		if ev.JobsTotal != total {
			t.Errorf("event %d total = %d, want %d", i, ev.JobsTotal, total)
		}
		wantState := "running"
		if i == len(events)-1 {
			wantState = "done"
		}
		if ev.State != wantState {
			t.Errorf("event %d state = %q, want %q", i, ev.State, wantState)
		}
		if i == 0 {
			continue
		}
		prev := events[i-1]
		if ev.JobsDone < prev.JobsDone || ev.NodeRounds < prev.NodeRounds || ev.DedupHits < prev.DedupHits {
			t.Errorf("progress regressed between events %d and %d: %+v -> %+v", i-1, i, prev, ev)
		}
	}
	last := events[len(events)-1]
	if last.JobsDone != total {
		t.Errorf("terminal event done = %d, want %d", last.JobsDone, total)
	}
}

// startEvents opens the NDJSON stream for a job and returns the response.
func startEvents(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	return resp
}

// submitBatch posts a batch and returns its ack.
func submitBatch(t *testing.T, ts *httptest.Server, jobs []RunRequest) BatchResponse {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestJobEventsStreamToTerminal gates the batch runner so the stream
// provably connects while the job is running: the first event must be a
// live "running" snapshot, and after release the stream must advance
// monotonically to exactly one terminal event and then close.
func TestJobEventsStreamToTerminal(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			<-release
			return rbcast.RunSweepJobs(jobs, opts)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	flood := RunRequest{Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}}
	jobs := []RunRequest{testScenario(), flood, testScenario()} // one in-batch duplicate
	ack := submitBatch(t, ts, jobs)

	resp := startEvents(t, ts, ack.ID)
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first ProgressEvent
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("first event: %v", err)
	}
	if first.State != "running" || first.JobsDone >= len(jobs) {
		t.Fatalf("first event = %+v, want a live running snapshot", first)
	}
	close(release)
	events := append([]ProgressEvent{first}, decodeEvents(t, resp.Body)...)
	assertMonotoneToTerminal(t, events, len(jobs))
	last := events[len(events)-1]
	if last.NodeRounds == 0 || last.DedupHits == 0 || last.Errors != 0 {
		t.Errorf("terminal event = %+v, want executed work, the duplicate deduped, no errors", last)
	}
}

// TestJobEventsCountEngineSharing: two flood jobs that differ only in t
// (dead for flood) simulate once, so the second is a dedup hit.
func TestJobEventsCountEngineSharing(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	a := RunRequest{Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, T: 1, Value: 1}}
	b := a
	b.Config.T = 2
	ack := submitBatch(t, ts, []RunRequest{a, b})
	resp := startEvents(t, ts, ack.ID)
	defer resp.Body.Close()
	events := decodeEvents(t, resp.Body)
	assertMonotoneToTerminal(t, events, 2)
	res, err := rbcast.Run(a.Config, a.Plan)
	if err != nil {
		t.Fatal(err)
	}
	once := int64(res.Rounds) * int64(len(res.Decisions))
	if last := events[len(events)-1]; last.DedupHits != 1 || last.NodeRounds != once {
		t.Errorf("terminal event = %+v, want dedup_hits 1 and node_rounds %d (one simulation)", last, once)
	}
}

// TestJobEventsAlreadyDone: a finished job yields exactly one terminal
// line and the stream closes; unknown jobs 404.
func TestJobEventsAlreadyDone(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario()}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, jb := getBody(t, ts, ack.StatusURL)
		var st JobStatus
		if err := json.Unmarshal(jb, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	er := startEvents(t, ts, ack.ID)
	defer er.Body.Close()
	events := decodeEvents(t, er.Body)
	if len(events) != 1 {
		t.Fatalf("finished job streamed %d events, want exactly the terminal one: %+v", len(events), events)
	}
	assertMonotoneToTerminal(t, events, 1)

	resp404, _ := getBody(t, ts, "/v1/jobs/nope/events")
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events status %d, want 404", resp404.StatusCode)
	}
}

// TestJobEventsTerminalOnPanic: a panicking batch execution still
// publishes the terminal event, with every element reported as an error —
// watchers converge instead of hanging.
func TestJobEventsTerminalOnPanic(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			<-release
			panic("stitching bug")
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jobs := []RunRequest{testScenario(), testScenario()}
	ack := submitBatch(t, ts, jobs)
	resp := startEvents(t, ts, ack.ID)
	defer resp.Body.Close()
	close(release)
	events := decodeEvents(t, resp.Body)
	assertMonotoneToTerminal(t, events, len(jobs))
	last := events[len(events)-1]
	if last.Errors != len(jobs) {
		t.Errorf("terminal event after panic = %+v, want every element errored", last)
	}
}

// TestJobEventsTerminalOnDeadline: elements cut by the job deadline count
// as errors in the terminal event.
func TestJobEventsTerminalOnDeadline(t *testing.T) {
	srv := New(Options{JobTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jobs := []RunRequest{testScenario()}
	ack := submitBatch(t, ts, jobs)
	resp := startEvents(t, ts, ack.ID)
	defer resp.Body.Close()
	events := decodeEvents(t, resp.Body)
	assertMonotoneToTerminal(t, events, len(jobs))
	last := events[len(events)-1]
	if last.Errors != 1 {
		t.Errorf("terminal event after deadline = %+v, want the element errored", last)
	}
}
