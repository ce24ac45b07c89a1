package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/grid"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topology"
)

// otherScenario returns a valid scenario whose fingerprint differs from
// testScenario and from otherScenario(m) for m != n, so tests can defeat
// the result cache and single-flight layer at will.
func otherScenario(n int) RunRequest {
	return RunRequest{
		Config: rbcast.Config{Width: 16, Height: 10 + n, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

// pollJob polls /v1/jobs/{id} until done or the deadline passes.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getBody(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll status %d: %s", resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// shedAssertions checks the contract every 429 must honor.
func shedAssertions(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("429 body is not the uniform error shape: %s", body)
	}
}

func TestBatchQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := New(Options{
		QueueDepth: 1,
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			entered <- struct{}{}
			<-release
			return rbcast.RunSweepJobs(jobs, opts)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// First submission fills the depth-1 queue and blocks in the runner.
	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario()}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	<-entered

	// Second submission must shed: 429, Retry-After, uniform error body.
	resp, body = postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{otherScenario(1)}})
	shedAssertions(t, resp, body)
	if !strings.Contains(string(body), "queue is full") {
		t.Errorf("shed body does not name the queue: %s", body)
	}

	// The shed is visible in metrics before the queue drains.
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `rbcastd_shed_total{reason="queue_full"} 1`) {
		t.Error("queue_full shed not counted in /metrics")
	}

	// Once the first batch drains, submissions are accepted again. The
	// queue-depth decrement races the job's done flag by a few
	// instructions, so retry briefly rather than asserting the first poll.
	close(release)
	pollJob(t, ts, ack.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{otherScenario(2)}})
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained queue still shedding: %d %s", resp.StatusCode, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSyncRunShedsWhenBusy(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := New(Options{
		MaxInflight: 1,
		Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
			entered <- struct{}{}
			<-release
			return rbcast.RunContext(ctx, cfg, plan)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, "/v1/run", testScenario())
		firstDone <- resp.StatusCode
	}()
	<-entered

	// The slot is held: a different scenario must shed with the 429
	// contract rather than queue behind it.
	resp, body := postJSON(t, ts, "/v1/run", otherScenario(1))
	shedAssertions(t, resp, body)

	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `rbcastd_shed_total{reason="busy"} 1`) {
		t.Error("busy shed not counted in /metrics")
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("slot-holding run finished with %d, want 200", code)
	}

	// With the slot free the shed scenario now executes.
	resp, body = postJSON(t, ts, "/v1/run", otherScenario(1))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retry after shed got %d: %s", resp.StatusCode, body)
	}
}

func TestPanickingScenarioIsolated(t *testing.T) {
	srv := New(Options{
		Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
			if cfg.Width == 99 {
				panic("synthetic scenario bug")
			}
			return rbcast.RunContext(ctx, cfg, plan)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := testScenario()
	bad.Config.Width = 99
	resp, body := postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("500 body does not report the panic: %s", body)
	}

	// The daemon survived: a healthy scenario still executes, and the
	// recovery is counted.
	resp, body = postJSON(t, ts, "/v1/run", testScenario())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after a panic: %d %s", resp.StatusCode, body)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_panics_recovered_total 1") {
		t.Error("recovered panic not counted in /metrics")
	}

	// A panic is never cached: the same bad scenario panics afresh.
	resp, _ = postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("second panicking run status %d, want 500", resp.StatusCode)
	}
}

// panicOnDeliver broadcasts at Init and panics on its first delivery.
type panicOnDeliver struct{}

func (panicOnDeliver) Init(ctx sim.Context) { ctx.Broadcast(sim.Message{Kind: sim.KindValue}) }
func (panicOnDeliver) Deliver(sim.Context, topology.NodeID, sim.Message) {
	panic("synthetic process bug")
}
func (panicOnDeliver) Decided() (byte, bool) { return 0, false }

// TestConcurrentEnginePanicIsolated is TestPanickingScenarioIsolated on the
// concurrent engine: a process panicking on one of internal/runtime's
// workers must also become a 500 and leave the daemon healthy.
func TestConcurrentEnginePanicIsolated(t *testing.T) {
	srv := New(Options{
		Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
			if cfg.Width == 99 {
				net := topology.MustNew(grid.Torus{W: 9, H: 9}, grid.Linf, 1)
				factory := func(topology.NodeID) sim.Process { return panicOnDeliver{} }
				_, err := runtime.Run(runtime.Config{Net: net, Factory: factory, Context: ctx})
				return rbcast.Result{}, err
			}
			return rbcast.RunContext(ctx, cfg, plan)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := testScenario()
	bad.Config.Width = 99
	resp, body := postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("500 body does not report the panic: %s", body)
	}
	resp, body = postJSON(t, ts, "/v1/run", testScenario())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after a panic: %d %s", resp.StatusCode, body)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_panics_recovered_total 1") {
		t.Error("recovered panic not counted in /metrics")
	}
}

func TestSyncRunDeadlineMapsTo504(t *testing.T) {
	srv := New(Options{
		JobTimeout: 10 * time.Millisecond,
		// The runner blocks until the server-injected deadline fires, then
		// reports it the way the engines do — proving executeOne actually
		// arms JobTimeout on the context it hands the runner.
		Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
			<-ctx.Done()
			return rbcast.Result{Rounds: 3}, fmt.Errorf("stub: %w: %w", rbcast.ErrDeadline, ctx.Err())
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/run", testScenario())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline run status %d, want 504: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("504 body does not mention the deadline: %s", body)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_run_deadline_total 1") {
		t.Error("deadline stop not counted in /metrics")
	}
}

func TestBatchDeadlineElementIsPartialAndUncached(t *testing.T) {
	// The injected runner deadline-fails the first element with a partial
	// result and completes the rest, mimicking what rbcast.RunSweepJobs
	// returns when one element's execution unit blows JobTimeout (the
	// genuine article is covered by TestRunBatchJobTimeout in the root
	// package and by cmd/rbcastd's TestOverloadContract end to end). This
	// pins the server half: Partial marking, sibling isolation, the
	// deadline counter, and the no-cache rule.
	calls := 0
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			calls++
			out, stats := rbcast.RunSweepJobs(jobs, opts)
			if calls == 1 {
				out[0] = rbcast.BatchResult{
					Result: rbcast.Result{Rounds: 2},
					Err:    fmt.Errorf("stub: %w", rbcast.ErrDeadline),
				}
			}
			return out, stats
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jobs := []RunRequest{testScenario(), otherScenario(1)}
	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: jobs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, ts, ack.ID)

	cut := st.Results[0]
	if cut.Error == "" || !cut.Partial || cut.Result == nil || cut.Result.Rounds != 2 {
		t.Errorf("deadline element not partial: %+v", cut)
	}
	sibling := st.Results[1]
	if sibling.Error != "" || sibling.Partial || sibling.Result == nil {
		t.Errorf("sibling damaged by the deadline element: %+v", sibling)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_run_deadline_total 1") {
		t.Error("batch deadline stop not counted in /metrics")
	}

	// The partial result must not have been cached: resubmitting the cut
	// scenario executes it afresh (calls == 2) and now succeeds.
	resp, body = postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: jobs[:1]})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	st = pollJob(t, ts, ack.ID)
	if got := st.Results[0]; got.Error != "" || got.Cached || got.Partial {
		t.Errorf("resubmitted element should be a fresh success: %+v", got)
	}
	if calls != 2 {
		t.Errorf("runner calls = %d, want 2 (partial was cached?)", calls)
	}
}

// TestDeadlineCountsEachExecutionOnce: rbcastd_run_deadline_total counts
// executions, not elements, and a cut execution adds nothing to
// rbcastd_sim_runs_total. Flood ignores T, so each request's three
// elements are one execution, which a 1ns JobTimeout cuts.
func TestDeadlineCountsEachExecutionOnce(t *testing.T) {
	ts := httptest.NewServer(New(Options{JobTimeout: time.Nanosecond}))
	defer ts.Close()

	base := RunRequest{Config: rbcast.Config{Width: 60, Height: 60, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}}
	resp, body := postJSON(t, ts, "/v1/sweep", SweepRequest{Base: base, Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	_, elements, trailer := decodeSweepStream(t, body)
	if trailer.Stats.Simulations != 1 {
		t.Fatalf("%d simulations, want the 3 elements to share 1", trailer.Stats.Simulations)
	}
	var jobs []RunRequest
	for i, el := range elements {
		if !el.Partial {
			t.Fatalf("element %d not cut by the deadline: %+v", i, el)
		}
		job := base
		job.Config.T = i
		jobs = append(jobs, job)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_run_deadline_total 1\n") {
		t.Error("a cut sweep execution shared by 3 elements did not count once")
	}
	if !strings.Contains(string(metrics), "rbcastd_sim_runs_total 0\n") {
		t.Error("a cut sweep execution counted as a completed simulation")
	}
	submitAndWait(t, ts, jobs)
	_, metrics = getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_run_deadline_total 2\n") {
		t.Error("a cut batch execution shared by 3 elements did not count once")
	}
	if !strings.Contains(string(metrics), "rbcastd_sim_runs_total 0\n") {
		t.Error("a cut batch execution counted as a completed simulation")
	}
}

func TestBatchGoroutinePanicFailsJobNotDaemon(t *testing.T) {
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			panic("synthetic stitching bug")
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario(), otherScenario(1)}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, ts, ack.ID)
	if len(st.Results) != 2 {
		t.Fatalf("results = %+v", st.Results)
	}
	for i, jr := range st.Results {
		if !strings.Contains(jr.Error, "panicked") {
			t.Errorf("element %d does not report the panic: %+v", i, jr)
		}
	}

	// The daemon is still serving.
	resp, _ = getBody(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("daemon unhealthy after a batch panic: %d", resp.StatusCode)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_panics_recovered_total 1") {
		t.Error("batch panic not counted in /metrics")
	}
}

// TestElementPanicsCounted: a batch or sweep element that settles with a
// *rbcast.PanicError counts once in rbcastd_panics_recovered_total, and
// its siblings complete.
func TestElementPanicsCounted(t *testing.T) {
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			out, stats := rbcast.RunSweepJobs(jobs, opts)
			out[0] = rbcast.BatchResult{Err: &rbcast.PanicError{Index: 0, Value: "synthetic element bug"}}
			return out, stats
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ack := submitBatch(t, ts, []RunRequest{testScenario(), otherScenario(1)})
	st := pollJob(t, ts, ack.ID)
	if !strings.Contains(st.Results[0].Error, "panicked") || st.Results[1].Error != "" {
		t.Errorf("batch elements = %+v, want element 0 panicked and element 1 complete", st.Results)
	}
	resp, body := postJSON(t, ts, "/v1/sweep", SweepRequest{
		Base: RunRequest{Config: rbcast.Config{Width: 10, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}},
		Axes: rbcast.SweepAxes{Placements: []rbcast.Placement{rbcast.PlaceNone, rbcast.PlaceBand}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	_, elements, _ := decodeSweepStream(t, body)
	if !strings.Contains(elements[0].Error, "panicked") || elements[1].Error != "" {
		t.Errorf("sweep elements = %+v, want element 0 panicked and element 1 complete", elements)
	}
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_panics_recovered_total 2") {
		t.Error("element panics not counted in /metrics, want 2")
	}
}
