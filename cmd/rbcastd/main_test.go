package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	rbcast "repro"
	"repro/client"
)

// syncBuffer holds the daemon log: run logs from many goroutines while
// the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is rbcastd running in-process through run.
type daemon struct {
	base   string
	log    syncBuffer
	cancel context.CancelFunc
	done   chan struct{}
	err    error // what run returned, set before done closes
}

// boot starts run on an ephemeral port with the given flags and waits for
// its "rbcastd listening" line. A failed test prints the daemon log.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, done: make(chan struct{})}
	go func() {
		d.err = run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &d.log)
		close(d.done)
	}()
	t.Cleanup(func() {
		cancel()
		<-d.done
		if t.Failed() {
			t.Logf("rbcastd log:\n%s", d.log.String())
		}
	})
	d.base = "http://" + d.addr(t, "rbcastd listening")
	return d
}

var listeningRE = regexp.MustCompile(`msg="([^"]+)" addr=(\S+)`)

// addr waits for the log line msg and returns the address it names.
func (d *daemon) addr(t *testing.T, msg string) string {
	t.Helper()
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(5 * time.Millisecond) {
		for _, m := range listeningRE.FindAllStringSubmatch(d.log.String(), -1) {
			if m[1] == msg {
				return m[2]
			}
		}
		select {
		case <-d.done:
			t.Fatalf("run returned before logging %q: %v", msg, d.err)
		default:
		}
	}
	t.Fatalf("rbcastd never logged %q", msg)
	return ""
}

// shutdown cancels run's context, as SIGTERM does in main, and requires
// run to return nil after a clean drain.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.cancel()
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		t.Fatal("run did not return after cancel")
	}
	if d.err != nil {
		t.Fatalf("run returned %v after cancel", d.err)
	}
	if !strings.Contains(d.log.String(), "drained, bye") {
		t.Error("rbcastd did not log a clean drain")
	}
}

// get fetches url and requires a 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// sample reads one sample's integer value from a /metrics exposition.
func sample(t *testing.T, metrics, name string) int {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return 0
}

// TestBadLogFlagsStopBeforeListening: an unknown -log-format or
// -log-level makes run return an error before anything listens.
func TestBadLogFlagsStopBeforeListening(t *testing.T) {
	for _, args := range [][]string{{"-log-format", "bogus"}, {"-log-level", "bogus"}} {
		var log syncBuffer
		err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), &log)
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Errorf("run %v = %v, want an error naming the value", args, err)
		}
		if strings.Contains(log.String(), "listening") {
			t.Errorf("run %v listened before rejecting the flag:\n%s", args, log.String())
		}
	}
}

// TestServeAndDrain serves a cached body byte for byte for a torus, an
// rgg and a quorum scenario, serves pprof and /metrics on the ops
// listener, and on cancel drains and closes both listeners.
func TestServeAndDrain(t *testing.T) {
	d := boot(t, "-ops-addr", "127.0.0.1:0")
	ops := "http://" + d.addr(t, "rbcastd ops listening")
	for _, scenario := range []string{
		`{"config":{"width":16,"height":10,"radius":1,"protocol":"bv4","t":2,"value":1},"plan":{"placement":"greedy-band","strategy":"silent"}}`,
		`{"config":{"topology":"rgg","nodes":64,"rgg_radius":0.22,"topology_seed":1,"protocol":"flood","value":1},"plan":{}}`,
		`{"config":{"topology":"rgg","nodes":16,"rgg_radius":0.75,"topology_seed":3,"protocol":"bracha","t":5,"value":1,"max_rounds":64},"plan":{"placement":"random-bounded","strategy":"equivocator","count":3,"seed":2}}`,
	} {
		var bodies [2][]byte
		for i, want := range []string{"miss", "hit"} {
			resp, err := http.Post(d.base+"/v1/run", "application/json", strings.NewReader(scenario))
			if err != nil {
				t.Fatal(err)
			}
			bodies[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("run %d of %s: status %d, %v: %s", i, scenario, resp.StatusCode, err, bodies[i])
			}
			if got := resp.Header.Get("X-Rbcast-Cache"); got != want {
				t.Errorf("run %d of %s: X-Rbcast-Cache %q, want %q", i, scenario, got, want)
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("cached body differs from the original for %s", scenario)
		}
	}
	if m := get(t, d.base+"/metrics"); !strings.Contains(m, `rbcastd_requests_total{path="/v1/run"} 6`+"\n") {
		t.Error(`rbcastd_requests_total{path="/v1/run"} is not 6`)
	}
	get(t, ops+"/debug/pprof/")
	if m := get(t, ops+"/metrics"); !strings.Contains(m, "rbcastd_requests_total") {
		t.Error("the ops listener's /metrics is not the daemon's")
	}

	d.shutdown(t)
	for _, base := range []string{d.base, ops} {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			t.Errorf("%s still serves after the drain", base)
		}
	}
}

// slowJob is a 140×140 BV4 run: 0.40–0.61 s on a 2-core Xeon, about twice
// the 250ms job deadline, so the deadline cuts it, and it holds the
// execution slot until then.
var slowJob = rbcast.Job{Config: rbcast.Config{Width: 140, Height: 140, Radius: 1, Protocol: rbcast.ProtocolBV4, Value: 1}}

// tinyJob runs in milliseconds; distinct n give distinct fingerprints, so
// neither the cache nor single-flight can answer for the engine.
func tinyJob(n int) rbcast.Job {
	return rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 10 + n, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

// TestOverloadContract saturates a daemon that has one execution slot, a
// one-deep batch queue and a 250ms job deadline. Sheds get 429 with
// Retry-After, a retrying client gets through, the slow element fails
// alone with a partial result, a sweep completes and repeats from the
// cache, and the daemon counts it all and still drains.
func TestOverloadContract(t *testing.T) {
	d := boot(t, "-queue-depth", "1", "-max-inflight", "1", "-job-timeout", "250ms")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	noRetry := client.New(d.base, client.Options{MaxRetries: -1})
	// The daemon sends Retry-After: 1; MaxBackoff cuts each wait short so
	// the retries do not sit out whole seconds. The retries outlast the
	// slow run, which the race detector stretches to about 4 s.
	retrying := client.New(d.base, client.Options{MaxRetries: 1000, MaxBackoff: 25 * time.Millisecond})
	metrics := func() string {
		m, err := noRetry.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Busy shed. Probe only once the slow run holds the slot: a probe sent
	// earlier would take the slot itself and shed the slow run instead.
	slowDone := make(chan error, 1)
	go func() {
		_, err := noRetry.Run(ctx, slowJob.Config, slowJob.Plan)
		slowDone <- err
	}()
	for !strings.Contains(metrics(), "\nrbcastd_inflight_runs 1\n") {
		select {
		case err := <-slowDone:
			t.Fatalf("slow run ended before it was seen in flight: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	var shed *client.StatusError
	for n := 0; shed == nil; n++ {
		select {
		case err := <-slowDone:
			t.Fatalf("no probe was shed while the slow run held the slot (slow run: %v)", err)
		default:
		}
		if _, err := noRetry.Run(ctx, tinyJob(n).Config, tinyJob(n).Plan); err != nil && !errors.As(err, &shed) {
			t.Fatalf("probe %d: %v", n, err)
		}
	}
	if shed.Code != http.StatusTooManyRequests || shed.RetryAfter <= 0 {
		t.Errorf("busy shed: status %d, Retry-After %v; want 429 with Retry-After", shed.Code, shed.RetryAfter)
	}
	if _, err := retrying.Run(ctx, tinyJob(19).Config, tinyJob(19).Plan); err != nil {
		t.Fatalf("retrying client did not get through the busy daemon: %v", err)
	}
	var se *client.StatusError
	if err := <-slowDone; err != nil && (!errors.As(err, &se) || se.Code != http.StatusGatewayTimeout) {
		t.Errorf("slow run: %v, want success or 504 from the job deadline", err)
	}

	// Queue shed. The slow batch fills the one-deep queue until the
	// deadline cuts its slow element.
	jobs := []rbcast.Job{slowJob, tinyJob(20), tinyJob(21)}
	ack, err := retrying.Submit(ctx, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = noRetry.Submit(ctx, []rbcast.Job{tinyJob(22)}, 0)
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter <= 0 {
		t.Fatalf("submission into the full queue: %v, want 429 with Retry-After", err)
	}
	ack2, err := retrying.Submit(ctx, []rbcast.Job{tinyJob(22)}, 0)
	if err != nil {
		t.Fatalf("retrying client did not get its batch accepted: %v", err)
	}
	st, err := retrying.WaitJob(ctx, ack.ID, 0)
	if err != nil || len(st.Results) != len(jobs) {
		t.Fatalf("slow batch: %+v, %v", st, err)
	}
	if cut := st.Results[0]; cut.Error == "" || !cut.Partial || cut.Result == nil {
		t.Errorf("slow element: error %q, partial %v; want a partial result", cut.Error, cut.Partial)
	}
	for i, sib := range st.Results[1:] {
		if sib.Error != "" || sib.Result == nil {
			t.Errorf("element %d failed beside the slow one: %q", i+1, sib.Error)
		}
	}
	if st, err := retrying.WaitJob(ctx, ack2.ID, 0); err != nil || st.Results[0].Error != "" {
		t.Errorf("retried batch: %+v, %v", st, err)
	}

	// A sweep shares the dead T axis, and its repeat is all cache hits.
	base := rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 12, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
	}
	axes := rbcast.SweepAxes{Ts: []int{0, 1}, CrashRounds: []int{1, 2, 3, 4}}
	for pass := 0; pass < 2; pass++ {
		sw, err := retrying.Sweep(ctx, base, axes, 0)
		if err != nil || len(sw.Elements) != 8 {
			t.Fatalf("sweep pass %d: %d elements, %v", pass, len(sw.Elements), err)
		}
		for i, el := range sw.Elements {
			if el.Error != "" || el.Result == nil || el.Cached != (pass == 1) {
				t.Errorf("sweep pass %d element %d: error %q, cached %v", pass, i, el.Error, el.Cached)
			}
		}
		if pass == 0 && sw.Stats.SharedResults == 0 {
			t.Errorf("sweep shared nothing across the dead T axis: %+v", sw.Stats)
		}
	}

	if err := noRetry.Health(ctx); err != nil {
		t.Fatal(err)
	}
	m := metrics()
	for _, name := range []string{`rbcastd_shed_total{reason="busy"}`, `rbcastd_shed_total{reason="queue_full"}`, "rbcastd_run_deadline_total"} {
		if sample(t, m, name) < 1 {
			t.Errorf("%s did not count", name)
		}
	}
	if n := sample(t, m, "rbcastd_panics_recovered_total"); n != 0 {
		t.Errorf("%d panics recovered under plain load", n)
	}
	d.shutdown(t)
}

// mediumJob runs for tens of milliseconds, so a batch of them is still
// running when the events stream connects.
func mediumJob(n int) rbcast.Job {
	return rbcast.Job{
		Config: rbcast.Config{Width: 48, Height: 24 + n, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

// engineSeconds sums a timeline's engine spans.
func engineSeconds(tl client.RequestTimeline) float64 {
	var sum float64
	for _, sp := range tl.Spans {
		if sp.Name == "engine" {
			sum += sp.DurationSeconds
		}
	}
	return sum
}

// TestObservabilityContract arms the flight recorder and a 1ms
// slow-request threshold. A sweep's timeline accounts for its time in
// spans, a watched batch streams monotone progress to its terminal event
// and keeps a timeline, and slow requests log WARN lines with phases.
func TestObservabilityContract(t *testing.T) {
	d := boot(t, "-flight-recorder", "64", "-slow-request", "1ms")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(d.base, client.Options{})

	base := rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 13, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
	}
	sw, err := c.Sweep(ctx, base, rbcast.SweepAxes{Ts: []int{0, 1}, CrashRounds: []int{1, 2, 3, 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range sw.Elements {
		if el.Error != "" || el.Result == nil {
			t.Errorf("sweep element %d: %q", i, el.Error)
		}
	}

	// Two in-batch duplicates give the stream dedup hits to count.
	var jobs []rbcast.Job
	for n := 0; n < 12; n++ {
		jobs = append(jobs, mediumJob(n))
	}
	jobs = append(jobs, mediumJob(0), mediumJob(1))
	ack, err := c.Submit(ctx, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var events []client.ProgressEvent
	st, err := c.WatchJob(ctx, ack.ID, func(ev client.ProgressEvent) { events = append(events, ev) })
	if err != nil || !st.Done() || len(st.Results) != len(jobs) {
		t.Fatalf("watched job: %+v, %v", st, err)
	}
	if len(events) < 2 {
		t.Fatalf("%d events, want a running snapshot before the terminal one", len(events))
	}
	for i, ev := range events {
		if i < len(events)-1 && ev.State != "running" {
			t.Errorf("event %d of %d has state %q", i, len(events), ev.State)
		}
		if prev := events[max(i-1, 0)]; ev.JobsDone < prev.JobsDone || ev.NodeRounds < prev.NodeRounds || ev.DedupHits < prev.DedupHits {
			t.Errorf("progress regressed at event %d: %+v after %+v", i, ev, prev)
		}
	}
	if last := events[len(events)-1]; !last.Done() || last.JobsDone != len(jobs) || last.NodeRounds == 0 || last.DedupHits < 2 {
		t.Errorf("terminal event %+v", last)
	}

	dbg, err := c.DebugRequests(ctx, "sort=slowest")
	if err != nil || !dbg.Enabled {
		t.Fatalf("/debug/requests: %+v, %v", dbg, err)
	}
	var sweepSeen, jobSeen bool
	for _, tl := range dbg.Requests {
		switch {
		case tl.Route == "/v1/sweep" && engineSeconds(tl) > 0:
			sweepSeen = true
			var children float64
			for _, sp := range tl.Spans[1:] {
				if sp.Parent == 0 {
					children += sp.DurationSeconds
				}
			}
			if children <= 0.5*tl.DurationSeconds || children > 1.1*tl.DurationSeconds {
				t.Errorf("sweep's top-level spans sum to %.4fs of a %.4fs request", children, tl.DurationSeconds)
			}
		case tl.Route == "batch-job" && tl.ID == ack.ID && engineSeconds(tl) > 0:
			jobSeen = true
		}
	}
	if !sweepSeen || !jobSeen {
		t.Errorf("flight recorder: sweep timeline with engine time %v, job %s timeline with engine time %v", sweepSeen, ack.ID, jobSeen)
	}

	d.shutdown(t)
	slow := 0
	for _, line := range strings.Split(d.log.String(), "\n") {
		if strings.Contains(line, `msg="slow request"`) {
			slow++
			if !strings.Contains(line, "phases=") {
				t.Errorf("slow-request line without phases: %s", line)
			}
		}
	}
	if slow == 0 {
		t.Error("no slow-request WARN line under a 1ms threshold")
	}
}
