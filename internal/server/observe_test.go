package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	rbcast "repro"
)

// tracedScenario is testScenario with tracing on.
func tracedScenario() RunRequest {
	req := testScenario()
	req.Config.Trace = true
	return req
}

// submitAndWait posts a batch and polls the job to completion, returning
// its status URL.
func submitAndWait(t *testing.T, ts *httptest.Server, jobs []RunRequest) string {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: jobs})
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
			return ack.StatusURL
		}
		if time.Now().After(deadline) {
			t.Fatal("batch job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTraceEndpointRoundTrip(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statusURL := submitAndWait(t, ts, []RunRequest{tracedScenario(), testScenario()})

	// The traced element streams NDJSON that decodes back losslessly and
	// matches a direct library run of the same scenario.
	resp, body := getBody(t, ts, statusURL+"/trace?job=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	events, err := rbcast.DecodeTrace(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decoding served trace: %v", err)
	}
	req := tracedScenario()
	want, err := rbcast.Run(req.Config, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, want.Trace) {
		t.Errorf("served trace (%d events) differs from a direct run (%d events)", len(events), len(want.Trace))
	}

	// Repeated GETs are byte-identical.
	_, again := getBody(t, ts, statusURL+"/trace?job=0")
	if !bytes.Equal(body, again) {
		t.Error("repeated trace GETs are not byte-identical")
	}

	// ?job defaults to element 0.
	_, deflt := getBody(t, ts, statusURL+"/trace")
	if !bytes.Equal(body, deflt) {
		t.Error("default element differs from ?job=0")
	}
}

func TestTraceEndpointErrors(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statusURL := submitAndWait(t, ts, []RunRequest{tracedScenario(), testScenario()})

	cases := []struct {
		name string
		path string
		code int
	}{
		{"unknown job", "/v1/jobs/nope/trace", http.StatusNotFound},
		{"untraced element", statusURL + "/trace?job=1", http.StatusNotFound},
		{"out-of-range element", statusURL + "/trace?job=7", http.StatusBadRequest},
		{"negative element", statusURL + "/trace?job=-1", http.StatusBadRequest},
		{"unparsable element", statusURL + "/trace?job=first", http.StatusBadRequest},
	}
	for _, tt := range cases {
		resp, body := getBody(t, ts, tt.path)
		if resp.StatusCode != tt.code {
			t.Errorf("%s: status %d, want %d (%s)", tt.name, resp.StatusCode, tt.code, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: body carries no error field: %s", tt.name, body)
		}
	}
}

func TestTraceEndpointWhileRunning(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			<-release
			return rbcast.RunSweepJobs(jobs, opts)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{tracedScenario()}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	resp, _ = getBody(t, ts, ack.StatusURL+"/trace")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("running job trace status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	close(release)
	submitAndWait(t, ts, []RunRequest{testScenario()}) // drain before Close
}

// TestMetricsHistogramExposition checks the Prometheus text-format
// invariants of the per-route duration histograms: HELP precedes TYPE
// precedes samples, labels are quoted, bucket counts are monotonically
// nondecreasing in le order, the +Inf bucket equals _count, and every
// registered route appears.
func TestMetricsHistogramExposition(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/run", testScenario())
	getBody(t, ts, "/healthz")

	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)

	helpAt := strings.Index(text, "# HELP rbcastd_request_duration_seconds ")
	typeAt := strings.Index(text, "# TYPE rbcastd_request_duration_seconds histogram")
	firstSample := strings.Index(text, "rbcastd_request_duration_seconds_bucket{")
	if helpAt < 0 || typeAt < 0 || firstSample < 0 {
		t.Fatalf("histogram family incomplete (help %d, type %d, sample %d):\n%s", helpAt, typeAt, firstSample, text)
	}
	if !(helpAt < typeAt && typeAt < firstSample) {
		t.Errorf("exposition order is HELP=%d TYPE=%d sample=%d, want HELP < TYPE < samples", helpAt, typeAt, firstSample)
	}

	// Per route: parse the bucket series and check the invariants.
	routes := []string{"/v1/run", "/v1/batch", "/v1/jobs/{id}", "/v1/jobs/{id}/trace", "/v1/jobs/{id}/events", "/healthz", "/metrics", "/debug/requests"}
	for _, route := range routes {
		var buckets []uint64
		var count uint64
		hasCount := false
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(line, fmt.Sprintf("rbcastd_request_duration_seconds_bucket{path=%q,le=", route)):
				f := strings.Fields(line)
				if len(f) != 2 {
					t.Fatalf("malformed sample %q", line)
				}
				v, err := strconv.ParseUint(f[1], 10, 64)
				if err != nil {
					t.Fatalf("bucket value in %q: %v", line, err)
				}
				buckets = append(buckets, v)
			case strings.HasPrefix(line, fmt.Sprintf("rbcastd_request_duration_seconds_count{path=%q}", route)):
				f := strings.Fields(line)
				v, err := strconv.ParseUint(f[1], 10, 64)
				if err != nil {
					t.Fatalf("count value in %q: %v", line, err)
				}
				count, hasCount = v, true
			}
		}
		if want := len(durationBuckets) + 1; len(buckets) != want {
			t.Fatalf("route %s exposes %d buckets, want %d", route, len(buckets), want)
		}
		if !hasCount {
			t.Fatalf("route %s exposes no _count", route)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Errorf("route %s bucket %d (%d) below bucket %d (%d) — not cumulative", route, i, buckets[i], i-1, buckets[i-1])
			}
		}
		if buckets[len(buckets)-1] != count {
			t.Errorf("route %s +Inf bucket %d != count %d", route, buckets[len(buckets)-1], count)
		}
	}

	// The routes exercised above observed at least one request each.
	for _, route := range []string{"/v1/run", "/healthz"} {
		if !strings.Contains(text, fmt.Sprintf("rbcastd_request_duration_seconds_count{path=%q} 1", route)) {
			t.Errorf("route %s did not record its request", route)
		}
	}
}

func TestRequestIDsAndLogging(t *testing.T) {
	var logBuf bytes.Buffer
	srv := New(Options{Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := getBody(t, ts, "/healthz")
	id1 := resp.Header.Get("X-Request-Id")
	if id1 == "" {
		t.Fatal("response carries no X-Request-Id")
	}
	resp, _ = getBody(t, ts, "/healthz")
	id2 := resp.Header.Get("X-Request-Id")
	if id2 == "" || id2 == id1 {
		t.Errorf("request ids are not unique: %q then %q", id1, id2)
	}

	// 404s from route handlers are logged with their real status.
	resp, _ = getBody(t, ts, "/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", resp.StatusCode)
	}

	logs := logBuf.String()
	for _, want := range []string{
		"msg=request",
		"request_id=" + id1,
		"request_id=" + id2,
		"route=/healthz",
		"route=/v1/jobs/{id}",
		"status=200",
		"status=404",
		"method=GET",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("request log lacks %q:\n%s", want, logs)
		}
	}
}

// TestLoggerNilIsQuiet: the default server records metrics and ids but
// writes no logs — the Logger tap mirrors the nil-safe discipline of the
// library's metrics and trace taps.
func TestLoggerNilIsQuiet(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := getBody(t, ts, "/healthz")
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("nil-logger server dropped request ids")
	}
}
