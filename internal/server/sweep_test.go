package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	rbcast "repro"
)

// decodeSweepStream parses the /v1/sweep NDJSON body.
func decodeSweepStream(t *testing.T, body []byte) (SweepHeader, []SweepElement, SweepTrailer) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var header SweepHeader
	if err := dec.Decode(&header); err != nil {
		t.Fatalf("decoding header: %v (body %q)", err, body)
	}
	elements := make([]SweepElement, 0, header.Elements)
	for i := 0; i < header.Elements; i++ {
		var el SweepElement
		if err := dec.Decode(&el); err != nil {
			t.Fatalf("decoding element %d: %v", i, err)
		}
		elements = append(elements, el)
	}
	var trailer SweepTrailer
	if err := dec.Decode(&trailer); err != nil {
		t.Fatalf("decoding trailer: %v", err)
	}
	return header, elements, trailer
}

// TestSweepEndpointMatchesScalarRuns plans a crash-round × T grid on the
// daemon and checks every streamed element against an independent direct
// run — the serving path must preserve the engine's byte-identity.
func TestSweepEndpointMatchesScalarRuns(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{Ts: []int{0, 1}, CrashRounds: []int{1, 2, 3}},
	}
	resp, body := postJSON(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	header, elements, trailer := decodeSweepStream(t, body)
	if header.Elements != 6 || len(elements) != 6 {
		t.Fatalf("planned %d elements, streamed %d, want 6", header.Elements, len(elements))
	}
	spec := rbcast.SweepSpec{Base: rbcast.Job{Config: req.Base.Config, Plan: req.Base.Plan}, Axes: req.Axes}
	jobs, err := spec.Elements()
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range elements {
		if el.Index != i {
			t.Errorf("element %d streamed with index %d", i, el.Index)
		}
		if el.Error != "" || el.Result == nil {
			t.Fatalf("element %d failed: %s", i, el.Error)
		}
		want, err := rbcast.Run(jobs[i].Config, jobs[i].Plan)
		if err != nil {
			t.Fatal(err)
		}
		got := *el.Result
		got.Metrics.Wall, want.Metrics.Wall = 0, 0
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("element %d diverges from scalar run", i)
		}
		if fp := jobs[i].Fingerprint(); el.Fingerprint != fp {
			t.Errorf("element %d fingerprint %q, want %q", i, el.Fingerprint, fp)
		}
	}
	// The T axis is dead for flood: 6 elements, ≤ 3 distinct executions.
	if trailer.Stats.SharedResults < 3 {
		t.Errorf("stats %+v: want ≥ 3 shared results", trailer.Stats)
	}
	if trailer.Stats.NodeRounds >= trailer.Stats.ScalarNodeRounds {
		t.Errorf("stats %+v: no incremental saving", trailer.Stats)
	}

	// A repeated sweep is served entirely from the result cache.
	resp, body = postJSON(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	_, elements, trailer = decodeSweepStream(t, body)
	for i, el := range elements {
		if !el.Cached {
			t.Errorf("repeat element %d not served from cache", i)
		}
	}
	if trailer.Stats.Simulations != 0 {
		t.Errorf("repeat sweep simulated %d times", trailer.Stats.Simulations)
	}

	// Metrics surface the sweep counters.
	resp, body = getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"rbcastd_sweeps_total 2", "rbcastd_sweep_elements_total 12"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSweepSharesTheScalarCache: /v1/sweep and /v1/run share one cache
// under one fingerprint. An element run first through /v1/run comes back
// cached in the sweep with the same result bytes, and an element the sweep
// computed is a /v1/run hit under the fingerprint the sweep streamed.
func TestSweepSharesTheScalarCache(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	type line struct {
		Fingerprint string          `json:"fingerprint"`
		Result      json.RawMessage `json:"result"`
		Cached      bool            `json:"cached"`
	}
	run := func(req RunRequest, cache string) line {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/run", req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Rbcast-Cache") != cache {
			t.Fatalf("/v1/run: status %d, cache %q, want %q", resp.StatusCode, resp.Header.Get("X-Rbcast-Cache"), cache)
		}
		var l line
		if err := json.Unmarshal(body, &l); err != nil {
			t.Fatal(err)
		}
		return l
	}

	base := RunRequest{
		Config: rbcast.Config{Width: 16, Height: 12, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
	}
	pre := base
	pre.Config.T, pre.Plan.CrashRound = 1, 2
	scalar := run(pre, "miss")
	resp, body := postJSON(t, ts, "/v1/sweep", SweepRequest{Base: base, Axes: rbcast.SweepAxes{Ts: []int{0, 1}, CrashRounds: []int{1, 2, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var elements []line
	for _, raw := range lines[1 : len(lines)-1] {
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		elements = append(elements, l)
	}
	i := slices.IndexFunc(elements, func(el line) bool { return el.Fingerprint == scalar.Fingerprint })
	if i < 0 {
		t.Fatalf("no sweep element has the /v1/run fingerprint %s", scalar.Fingerprint)
	}
	if el := elements[i]; !el.Cached || !bytes.Equal(el.Result, scalar.Result) {
		t.Errorf("pre-run element: cached %v, same result bytes %v", el.Cached, bytes.Equal(el.Result, scalar.Result))
	}

	first := base
	first.Plan.CrashRound = 1 // element 0: t=0, crash round 1
	if got := run(first, "hit"); got.Fingerprint != elements[0].Fingerprint {
		t.Errorf("/v1/run fingerprint %s, sweep element 0 %s", got.Fingerprint, elements[0].Fingerprint)
	}
	_, _, trailer := decodeSweepStream(t, body)
	_, metrics := getBody(t, ts, "/metrics")
	shared := fmt.Sprintf("\nrbcastd_sweep_shared_results_total %d\n", trailer.Stats.SharedResults)
	if trailer.Stats.SharedResults < 2 || !bytes.Contains(metrics, []byte(shared)) {
		t.Errorf("trailer shares %d results; /metrics must show the same, at least 2", trailer.Stats.SharedResults)
	}
}

// TestSweepEndpointRejectsBadGrids pins the 400 paths: malformed body,
// invalid base scenario (inline element errors), and an oversized grid.
func TestSweepEndpointRejectsBadGrids(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postJSON(t, ts, "/v1/sweep", map[string]any{"bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	big := SweepRequest{
		Base: RunRequest{Config: rbcast.Config{Width: 10, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}},
		Axes: rbcast.SweepAxes{Ts: make([]int, 100), Seeds: make([]int64, 100)},
	}
	resp, body := postJSON(t, ts, "/v1/sweep", big)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d (%s), want 400", resp.StatusCode, body)
	}

	// An invalid scenario is an element-level error, not a request error:
	// the grid is well-formed, the elements all reject.
	invalid := SweepRequest{
		Base: RunRequest{Config: rbcast.Config{Width: 10, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, T: -1, Value: 1}},
		Axes: rbcast.SweepAxes{CrashRounds: []int{1, 2}},
	}
	resp, body = postJSON(t, ts, "/v1/sweep", invalid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalid base: status %d (%s), want 200 with element errors", resp.StatusCode, body)
	}
	_, elements, _ := decodeSweepStream(t, body)
	for i, el := range elements {
		if el.Error == "" || el.Result != nil {
			t.Errorf("element %d: want an element-level error, got %+v", i, el)
		}
	}
}

// TestSweepEndpointRejectsOverflowingGrid: a ~0.6 MB body whose four
// 65,536-entry axes multiply to 2^64, which wraps int to 0, must be
// answered 400 promptly. A grid that slipped past the cap would append
// jobs until the daemon ran out of memory, so the test aborts the binary
// if the answer does not come.
func TestSweepEndpointRejectsOverflowingGrid(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	axis := func(v string) string {
		return "[" + strings.TrimSuffix(strings.Repeat(v+",", 1<<16), ",") + "]"
	}
	body := json.RawMessage(`{"base":{"config":{}},"axes":{"placements":` + axis(`""`) +
		`,"ts":` + axis("0") + `,"seeds":` + axis("0") + `,"crash_rounds":` + axis("0") + `}}`)
	guard := time.AfterFunc(10*time.Second, func() { panic("/v1/sweep is expanding a grid over the cap") })
	defer guard.Stop()
	resp, out := postJSON(t, ts, "/v1/sweep", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing grid: status %d (%.200s), want 400", resp.StatusCode, out)
	}
}

// TestSweepEndpointSheds pins the 429 + Retry-After backpressure when every
// execution slot is taken.
func TestSweepEndpointSheds(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := New(Options{
		MaxInflight: 1,
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			started <- struct{}{}
			<-block
			return rbcast.RunSweepJobs(jobs, opts)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 10, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		},
		Axes: rbcast.SweepAxes{Seeds: []int64{1}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started

	resp, _ := postJSON(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second sweep status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	close(block)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("first sweep status %d, want 200", code)
	}
}
