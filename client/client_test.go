package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/server"
)

// testScenario is the small, fast scenario used across the suite.
func testScenario() rbcast.Job {
	return rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

// recordingClient wires the test seams: sleeps are recorded instead of
// waited out, and jitter is pinned to 0.5 so backoffs are deterministic.
func recordingClient(url string, opts Options, sleeps *[]time.Duration) *Client {
	c := New(url, opts)
	c.jitter = func() float64 { return 0.5 }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*sleeps = append(*sleeps, d)
		return ctx.Err()
	}
	return c
}

func TestRunAgainstRealDaemon(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	c := New(ts.URL, Options{})

	job := testScenario()
	got, err := c.Run(context.Background(), job.Config, job.Plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Cached {
		t.Error("first run reported cached")
	}
	if got.Fingerprint != job.Fingerprint() {
		t.Errorf("fingerprint %q, want %q", got.Fingerprint, job.Fingerprint())
	}
	want, err := rbcast.Run(job.Config, job.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Correct != want.Correct || got.Result.Rounds != want.Rounds {
		t.Errorf("result diverges from direct run: correct %d rounds %d, want %d/%d",
			got.Result.Correct, got.Result.Rounds, want.Correct, want.Rounds)
	}

	again, err := c.Run(context.Background(), job.Config, job.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("second identical run was not served from the cache")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	ctx := context.Background()

	flood := rbcast.Job{Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}}
	ack, err := c.Submit(ctx, []rbcast.Job{testScenario(), flood}, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if ack.Jobs != 2 || ack.ID == "" {
		t.Fatalf("ack = %+v", ack)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	st, err := c.WaitJob(waitCtx, ack.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if len(st.Results) != 2 {
		t.Fatalf("status = %+v", st)
	}
	for i, jr := range st.Results {
		if jr.Error != "" || jr.Result == nil {
			t.Errorf("element %d: %+v", i, jr)
		}
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1}`))
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{}, &sleeps)
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	// Both backoffs must be the server's Retry-After hint, not the
	// exponential schedule.
	if len(sleeps) != 2 || sleeps[0] != time.Second || sleeps[1] != time.Second {
		t.Errorf("sleeps = %v, want [1s 1s]", sleeps)
	}
}

func TestRetryBacksOffExponentiallyWithJitter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			// No Retry-After: the client falls back to its own schedule.
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1}`))
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 150 * time.Millisecond}, &sleeps)
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after retries: %v", err)
	}
	// jitter pinned at 0.5: delay = d/2 + d/4 = 3d/4 with d the capped
	// doubling schedule 100ms, 150ms, 150ms.
	want := []time.Duration{75 * time.Millisecond, 112500 * time.Microsecond, 112500 * time.Microsecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, sleeps[i], want[i])
		}
	}
}

func TestNonRetryableStatusReturnsImmediately(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"invalid scenario"}`))
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{}, &sleeps)
	err := c.Health(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.Message != "invalid scenario" {
		t.Fatalf("err = %v, want StatusError 400 with daemon message", err)
	}
	if calls.Load() != 1 || len(sleeps) != 0 {
		t.Errorf("non-retryable status must not retry: %d calls, sleeps %v", calls.Load(), sleeps)
	}
}

func TestRetriesExhaustAfterMaxRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{MaxRetries: 2}, &sleeps)
	err := c.Health(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want StatusError 429", err)
	}
	if se.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", se.RetryAfter)
	}
	if got := calls.Load(); got != 3 { // 1 try + 2 retries
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-90 * time.Second).UTC().Format(http.TimeFormat)
	tests := []struct {
		name  string
		value string
		// min/max bound the accepted result; exact values use min == max.
		min, max time.Duration
	}{
		{"absent header", "", 0, 0},
		{"delta-seconds", "7", 7 * time.Second, 7 * time.Second},
		{"zero delta-seconds", "0", 0, 0},
		{"negative delta-seconds clamps to 0", "-3", 0, 0},
		{"HTTP-date in the future", future, time.Millisecond, 90 * time.Second},
		{"HTTP-date in the past clamps to 0", past, 0, 0},
		{"HTTP-date exactly now clamps to 0", time.Now().UTC().Format(http.TimeFormat), 0, 0},
		{"garbage", "garbage", 0, 0},
		{"fractional seconds are not delta-seconds", "1.5", 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := parseRetryAfter(tt.value)
			if d < 0 {
				t.Fatalf("parseRetryAfter(%q) = %v: a negative duration must never escape (it would skew backoff caps)", tt.value, d)
			}
			if d < tt.min || d > tt.max {
				t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", tt.value, d, tt.min, tt.max)
			}
		})
	}
}

func TestSweepAgainstRealDaemon(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	c := New(ts.URL, Options{})

	base := rbcast.Job{
		Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
	}
	axes := rbcast.SweepAxes{CrashRounds: []int{1, 2, 3}}
	got, err := c.Sweep(context.Background(), base, axes, 0)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(got.Elements) != 3 {
		t.Fatalf("got %d elements, want 3", len(got.Elements))
	}
	spec := rbcast.SweepSpec{Base: base, Axes: axes}
	jobs, err := spec.Elements()
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range got.Elements {
		if el.Error != "" || el.Result == nil {
			t.Fatalf("element %d failed: %s", i, el.Error)
		}
		want, err := rbcast.Run(jobs[i].Config, jobs[i].Plan)
		if err != nil {
			t.Fatal(err)
		}
		if el.Result.Rounds != want.Rounds || el.Result.Correct != want.Correct {
			t.Errorf("element %d diverges: rounds %d correct %d, want %d/%d",
				i, el.Result.Rounds, el.Result.Correct, want.Rounds, want.Correct)
		}
		if el.Fingerprint != jobs[i].Fingerprint() {
			t.Errorf("element %d fingerprint %q", i, el.Fingerprint)
		}
	}
	if got.Stats.Forks == 0 {
		t.Errorf("stats %+v: expected prefix forks", got.Stats)
	}

	// A repeat sweep is a pure cache read.
	again, err := c.Sweep(context.Background(), base, axes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range again.Elements {
		if !el.Cached {
			t.Errorf("repeat element %d not cached", i)
		}
	}
}

// eventsLine renders one NDJSON progress line for the fake daemons below.
func eventsLine(state string, done, total int, rounds int64) string {
	return fmt.Sprintf(`{"state":%q,"jobs_done":%d,"jobs_total":%d,"node_rounds":%d,"dedup_hits":0,"errors":0}`+"\n",
		state, done, total, rounds)
}

// TestWatchJobReconnectsTruncatedStream: the first events connection dies
// mid-stream; WatchJob must reconnect, suppress the replayed snapshot, and
// deliver a monotone event sequence through the terminal state.
func TestWatchJobReconnectsTruncatedStream(t *testing.T) {
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		switch conns.Add(1) {
		case 1:
			// One live snapshot, then the connection drops (idle proxy,
			// client timeout) — NDJSON has no terminator, so this is a
			// truncation from the client's point of view.
			io.WriteString(w, eventsLine("running", 1, 3, 5))
		default:
			// Reconnect: the daemon replays the current snapshot, then the
			// job advances to the terminal state.
			io.WriteString(w, eventsLine("running", 1, 3, 5))
			io.WriteString(w, eventsLine("running", 2, 3, 9))
			io.WriteString(w, eventsLine("done", 3, 3, 12))
		}
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"id":"j1","state":"done","jobs":3,"results":[{},{},{}]}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{}, &sleeps)
	var events []ProgressEvent
	st, err := c.WatchJob(context.Background(), "j1", func(ev ProgressEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("WatchJob: %v", err)
	}
	if !st.Done() || len(st.Results) != 3 {
		t.Fatalf("final status = %+v", st)
	}
	if got := conns.Load(); got != 2 {
		t.Errorf("server saw %d events connections, want 2 (one truncated, one reconnect)", got)
	}
	if len(sleeps) != 1 {
		t.Errorf("sleeps = %v, want exactly one reconnect backoff", sleeps)
	}
	want := []ProgressEvent{
		{State: "running", JobsDone: 1, JobsTotal: 3, NodeRounds: 5},
		{State: "running", JobsDone: 2, JobsTotal: 3, NodeRounds: 9},
		{State: "done", JobsDone: 3, JobsTotal: 3, NodeRounds: 12},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %+v, want %+v (replayed snapshot must be suppressed)", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestWatchJobStallBudget: reconnects that never yield a new event burn
// the retry budget and fail; the watcher must not spin forever on a
// daemon that keeps replaying the same snapshot and hanging up.
func TestWatchJobStallBudget(t *testing.T) {
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j2/events", func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		io.WriteString(w, eventsLine("running", 1, 2, 5))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{MaxRetries: 2}, &sleeps)
	_, err := c.WatchJob(context.Background(), "j2", nil)
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("err = %v, want a stalled-watch failure", err)
	}
	// Connection 1 progresses (resets the budget); connections 2-4 replay
	// the same snapshot and exhaust MaxRetries=2.
	if got := conns.Load(); got != 4 {
		t.Errorf("server saw %d connections, want 4", got)
	}
}

// TestWatchJobStatusErrorCarriesRequestID: a refused stream surfaces the
// daemon's request id so the failure can be matched to the request log and
// flight recorder.
func TestWatchJobStatusErrorCarriesRequestID(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", "abc-000042")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{}, &sleeps)
	_, err := c.WatchJob(context.Background(), "nope", nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want StatusError 404", err)
	}
	if se.RequestID != "abc-000042" {
		t.Errorf("RequestID = %q, want abc-000042", se.RequestID)
	}
	if !strings.Contains(se.Error(), "abc-000042") {
		t.Errorf("Error() = %q, want the request id rendered", se.Error())
	}
}

// faultTransport injects transport-level failures by attempt number,
// delegating clean attempts to the default transport.
type faultTransport struct {
	fail  func(attempt int) error
	calls atomic.Int32
}

func (t *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if err := t.fail(int(t.calls.Add(1))); err != nil {
		// Drain the body like a real transport that died mid-write would:
		// the bytes left the client before the connection reset.
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, err
	}
	return http.DefaultTransport.RoundTrip(r)
}

// resetError mimics a connection reset after the request started — the
// ambiguous case where the daemon may have received and acted on it.
func resetError() error {
	return &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}
}

// dialError mimics a refused dial — proof the daemon never saw anything.
func dialError() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
}

// TestSubmitNotRetriedAfterAmbiguousFailure: a batch submission is not
// idempotent — each accepted copy creates a new job — so a connection
// reset mid-request must fail immediately instead of retrying a request
// the daemon may already have accepted.
func TestSubmitNotRetriedAfterAmbiguousFailure(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	ft := &faultTransport{fail: func(int) error { return resetError() }}
	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{HTTPClient: &http.Client{Transport: ft}}, &sleeps)

	_, err := c.Submit(context.Background(), []rbcast.Job{testScenario()}, 0)
	if err == nil || !strings.Contains(err.Error(), "not retrying") {
		t.Fatalf("err = %v, want the ambiguous-failure refusal", err)
	}
	if got := ft.calls.Load(); got != 1 {
		t.Errorf("transport saw %d attempts, want exactly 1", got)
	}
	if len(sleeps) != 0 {
		t.Errorf("sleeps = %v, want none", sleeps)
	}
}

// TestSubmitRetriedAfterDialFailure: a failed dial proves non-receipt, so
// the submission is safe to retry even though it is not idempotent.
func TestSubmitRetriedAfterDialFailure(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	ft := &faultTransport{fail: func(attempt int) error {
		if attempt <= 2 {
			return dialError()
		}
		return nil
	}}
	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{HTTPClient: &http.Client{Transport: ft}}, &sleeps)

	ack, err := c.Submit(context.Background(), []rbcast.Job{testScenario()}, 0)
	if err != nil {
		t.Fatalf("Submit after dial retries: %v", err)
	}
	if ack.ID == "" || ack.Jobs != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if got := ft.calls.Load(); got != 3 {
		t.Errorf("transport saw %d attempts, want 3", got)
	}
}

// TestRunRetriedAfterAmbiguousFailure: runs are idempotent (deterministic
// and cached by fingerprint), so even the ambiguous reset retries.
func TestRunRetriedAfterAmbiguousFailure(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	ft := &faultTransport{fail: func(attempt int) error {
		if attempt == 1 {
			return resetError()
		}
		return nil
	}}
	var sleeps []time.Duration
	c := recordingClient(ts.URL, Options{HTTPClient: &http.Client{Transport: ft}}, &sleeps)

	job := testScenario()
	got, err := c.Run(context.Background(), job.Config, job.Plan)
	if err != nil {
		t.Fatalf("Run after reset retry: %v", err)
	}
	if got.Fingerprint != job.Fingerprint() {
		t.Errorf("fingerprint %q", got.Fingerprint)
	}
	if ft.calls.Load() != 2 {
		t.Errorf("transport saw %d attempts, want 2", ft.calls.Load())
	}
}
