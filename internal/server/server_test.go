package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rbcast "repro"
)

// testScenario is a small, fast scenario used across the suite.
func testScenario() RunRequest {
	return RunRequest{
		Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func TestRunEndpointMatchesDirectRun(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := testScenario()
	resp, body := postJSON(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rbcast-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	want, err := rbcast.Run(req.Config, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Fingerprint != (rbcast.Job{Config: req.Config, Plan: req.Plan}).Fingerprint() {
		t.Errorf("fingerprint mismatch: %s", rr.Fingerprint)
	}
	got := rr.Result
	got.Metrics.Wall, want.Metrics.Wall = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Error("served result diverges from direct rbcast.Run")
	}

	// Second identical request: a resident cache hit.
	resp2, body2 := postJSON(t, ts, "/v1/run", req)
	if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached response body differs from the original")
	}
}

// TestConcurrentIdenticalRunsSingleFlight is the acceptance check: two
// concurrent identical POST /v1/run requests must produce exactly one
// simulation execution and byte-identical JSON bodies, and /metrics must
// then report cache_hits_total ≥ 1.
func TestConcurrentIdenticalRunsSingleFlight(t *testing.T) {
	var executions atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := New(Options{
		Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
			if executions.Add(1) == 1 {
				close(entered)
			}
			<-release
			return rbcast.RunContext(ctx, cfg, plan)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := testScenario()
	bodies := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts, "/v1/run", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}

	// Wait until the first request is inside the runner, then until the
	// second has coalesced onto its flight (visible as a cache hit),
	// before letting the execution finish.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for srv.cache.Stats().Hits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced onto the in-flight execution")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1", got)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("concurrent identical requests returned different bodies:\n%s\n%s", bodies[0], bodies[1])
	}

	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_cache_hits_total 1") {
		t.Errorf("/metrics must report at least one cache hit:\n%s", metrics)
	}
}

func TestRunEndpointRejectsInvalidScenario(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := testScenario()
	bad.Config.Value = 7
	resp, body := postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("error body %s", body)
	}
	// Errors must not be cached: a valid retry with the same shape works.
	// And malformed JSON (unknown field) is a 400, not a silent default.
	resp, _ = postJSON(t, ts, "/v1/run", map[string]any{"config": map[string]any{"widht": 16}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestBatchEndpointRunsAndDeduplicates(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a := testScenario()
	b := testScenario()
	b.Config.Protocol = rbcast.ProtocolBV2
	invalid := testScenario()
	invalid.Config.Metric = rbcast.MetricL2
	invalid.Config.Value = 9 // rejected by validate
	// a appears twice: the duplicate must resolve without a second run.
	reqs := []RunRequest{a, b, a, invalid}

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: reqs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Jobs != len(reqs) || ack.StatusURL != "/v1/jobs/"+ack.ID {
		t.Fatalf("ack = %+v", ack)
	}

	var status JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, jb := getBody(t, ts, ack.StatusURL)
		if err := json.Unmarshal(jb, &status); err != nil {
			t.Fatal(err)
		}
		if status.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if len(status.Results) != len(reqs) {
		t.Fatalf("%d results for %d jobs", len(status.Results), len(reqs))
	}
	for i, idx := range []int{0, 1} {
		jr := status.Results[idx]
		if jr.Error != "" || jr.Result == nil {
			t.Fatalf("job %d failed: %+v", i, jr)
		}
		want, err := rbcast.Run(reqs[idx].Config, reqs[idx].Plan)
		if err != nil {
			t.Fatal(err)
		}
		got := *jr.Result
		got.Metrics.Wall, want.Metrics.Wall = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d result diverges from direct run", idx)
		}
	}
	dup := status.Results[2]
	if !dup.Cached || dup.Result == nil {
		t.Errorf("within-batch duplicate not served from its first occurrence: %+v", dup)
	}
	if status.Results[3].Error == "" {
		t.Error("invalid job must carry its error")
	}

	// The batch populated the cache: a sync run of scenario b now hits.
	resp, _ = postJSON(t, ts, "/v1/run", b)
	if got := resp.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("post-batch sync request cache header = %q, want hit", got)
	}
}

func TestJobEndpointUnknownID(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := getBody(t, ts, "/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestBatchValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := getBody(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Errorf("healthz body %s (err %v)", body, err)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/run", testScenario())
	postJSON(t, ts, "/v1/run", testScenario())
	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`rbcastd_requests_total{path="/v1/run"} 2`,
		"rbcastd_cache_hits_total 1",
		"rbcastd_cache_misses_total 1",
		"rbcastd_sim_runs_total 1",
		"rbcastd_jobs_queue_depth 0",
		"rbcastd_inflight_runs 0",
		"# TYPE rbcastd_cache_hits_total counter",
		"# TYPE rbcastd_cache_entries gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Simulation totals must reflect the one executed run.
	res, err := rbcast.Run(testScenario().Config, testScenario().Plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("rbcastd_sim_broadcasts_total %d", res.Broadcasts); !strings.Contains(text, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestMetricsCountsAreIntegers: a count of a million or more still renders
// as digits, not in exponent form — readers of the exposition parse the
// samples as integers. Only the seconds families carry fractions.
func TestMetricsCountsAreIntegers(t *testing.T) {
	srv := New(Options{})
	srv.simDeliveries.Add(2_000_000)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, body := getBody(t, ts, "/metrics")
	text := string(body)
	if !strings.Contains(text, "\nrbcastd_sim_deliveries_total 2000000\n") {
		t.Errorf("/metrics lacks the digits-only sample rbcastd_sim_deliveries_total 2000000:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || strings.Contains(line, "_seconds") {
			continue
		}
		sample := line[strings.LastIndexByte(line, ' ')+1:]
		if strings.Trim(sample, "0123456789") != "" {
			t.Errorf("count sample is not digits-only: %q", line)
		}
	}
}

func TestDrainWaitsForBatchJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			close(started)
			<-release
			return rbcast.RunSweepJobs(jobs, opts)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario()}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	<-started

	// Drain with an expired deadline reports the still-queued job.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Drain(expired); err == nil {
		t.Error("drain with blocked batch job must time out")
	}

	// New batch submissions are rejected while draining.
	resp, _ = postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario()}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining batch: status %d, want 503", resp.StatusCode)
	}

	close(release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

func TestFinishedJobEviction(t *testing.T) {
	srv := New(Options{MaxJobs: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		req := testScenario()
		req.Config.T = i // distinct scenarios
		resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{req}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var ack BatchResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ack.ID)
		// Let each job finish before the next submission so eviction has
		// a finished candidate.
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
				t.Fatal("job never finished")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	resp, _ := getBody(t, ts, "/v1/jobs/"+ids[0])
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job should be evicted, got status %d", resp.StatusCode)
	}
	resp, _ = getBody(t, ts, "/v1/jobs/"+ids[2])
	if resp.StatusCode != http.StatusOK {
		t.Errorf("newest job must survive eviction, got status %d", resp.StatusCode)
	}
}

// TestRunEndpointServesNonTorusFamilies is the tentpole's serving-surface
// acceptance check: rgg and custom scenarios submit, execute, cache, and
// replay through /v1/run exactly like torus ones, and a torus-only protocol
// on a non-torus family is a 400, not a crash or a cached error.
func TestRunEndpointServesNonTorusFamilies(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ring := &rbcast.GraphSpec{Nodes: 8, Edges: [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0},
	}}
	cases := []struct {
		name string
		req  RunRequest
	}{
		{"rgg", RunRequest{
			Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		}},
		{"custom", RunRequest{
			Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: ring, Protocol: rbcast.ProtocolCPA, T: 1, MaxRounds: 64, Value: 1},
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, "/v1/run", tt.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Rbcast-Cache"); got != "miss" {
				t.Errorf("first request cache header = %q, want miss", got)
			}
			var rr RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			want := (rbcast.Job{Config: tt.req.Config, Plan: tt.req.Plan}).Fingerprint()
			if rr.Fingerprint != want {
				t.Errorf("fingerprint %s, want %s", rr.Fingerprint, want)
			}
			if len(rr.Result.Decisions) == 0 || !rr.Result.Safe() {
				t.Errorf("served non-torus result is empty or unsafe: %+v", rr.Result)
			}
			resp2, body2 := postJSON(t, ts, "/v1/run", tt.req)
			if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
				t.Errorf("second request cache header = %q, want hit", got)
			}
			if !bytes.Equal(body, body2) {
				t.Error("cached non-torus body differs from the original")
			}
		})
	}

	// A torus-only protocol on an rgg graph must be rejected up front.
	bad := cases[0].req
	bad.Config.Protocol = rbcast.ProtocolBV4
	bad.Config.T = 1
	resp, body := postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bv4-on-rgg: status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "torus") {
		t.Errorf("bv4-on-rgg error %s does not name the required family", body)
	}
}
