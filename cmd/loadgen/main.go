// Command loadgen drives rbcastd to saturation through the client package
// and asserts the daemon's overload behavior: shed, never stall. It is the
// executable half of scripts/load_smoke.sh, which boots a deliberately tiny
// daemon (-queue-depth 1 -max-inflight 1 -job-timeout 250ms) and points
// loadgen at it.
//
//	loadgen -addr http://127.0.0.1:PORT [-timeout 2m]
//
// Phases, each of which fails the process on a contract violation:
//
//  1. busy shed — while a slow synchronous run holds the daemon's single
//     execution slot, un-retried probes must come back 429 with a
//     Retry-After hint, and a retrying client must ride the backoff to an
//     eventual 200. Every request gets a definite answer.
//  2. queue backpressure — with a slow batch occupying the depth-1 queue,
//     a second submission must shed with 429 + Retry-After, and a
//     retrying client must get it accepted once the queue drains.
//  3. deadline isolation — the slow batch element, its own execution
//     unit, must fail with a partial result marked by the job deadline
//     while its sibling elements complete, and the daemon must stay
//     healthy throughout.
//
// It exits 0 only if every phase held and the final /metrics shows the
// sheds and deadline stops the phases provoked — and no recovered panics.
//
// With -progress, loadgen instead runs the observability phase alone
// against a normally-provisioned daemon (scripts/obs_smoke.sh boots one
// with the flight recorder armed): it sweeps, watches a batch job live
// through GET /v1/jobs/{id}/events (client.WatchJob), prints the progress
// report, and asserts the flight recorder (GET /debug/requests) attributed
// the sweep's time to a nonzero engine phase with child spans summing to
// ≈ the request duration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	rbcast "repro"
	"repro/client"
)

// slowScenario needs well over the smoke daemon's 250ms job deadline
// (~1.8s at tip on the dev container), so the deadline reliably cuts it
// short and it holds the execution slot long enough to provoke sheds.
func slowScenario() rbcast.Job {
	return rbcast.Job{Config: rbcast.Config{
		Width: 140, Height: 140, Radius: 1, Protocol: rbcast.ProtocolBV4, Value: 1,
	}}
}

// tinyScenario finishes in single-digit milliseconds. Distinct n values
// give distinct fingerprints so the result cache and single-flight layer
// cannot short-circuit the requests this tool needs the daemon to execute.
func tinyScenario(n int) rbcast.Job {
	return rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 10 + n, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

func main() {
	var (
		addr     = flag.String("addr", "", "rbcastd base URL (required), e.g. http://127.0.0.1:8080")
		timeout  = flag.Duration("timeout", 2*time.Minute, "overall wall-clock budget for the whole run")
		progress = flag.Bool("progress", false, "run only the observability phase: live job progress (/v1/jobs/{id}/events) and flight-recorder attribution (/debug/requests)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// noRetry sees the daemon's raw shedding; retrying rides it out. The
	// generous retry budget covers the ~2s the slow scenario occupies the
	// daemon plus its 1-second Retry-After hints.
	noRetry := client.New(*addr, client.Options{MaxRetries: -1})
	retrying := client.New(*addr, client.Options{MaxRetries: 8})

	if err := noRetry.Health(ctx); err != nil {
		log.Fatalf("FAIL: daemon not healthy before load: %v", err)
	}

	if *progress {
		phaseObservability(ctx, retrying)
		log.Print("ok: live progress streamed to terminal state and the flight recorder attributed the time")
		return
	}

	phaseBusyShed(ctx, noRetry, retrying)
	phaseQueueBackpressure(ctx, noRetry, retrying)
	phaseSweep(ctx, retrying)
	phaseFinalState(ctx, noRetry)

	log.Print("ok: daemon shed under saturation, isolated the over-deadline job, and stayed healthy")
}

// mediumScenario takes tens of milliseconds — long enough that a batch of
// them is still running when the events stream connects, short enough to
// keep the smoke fast. Distinct n values give distinct fingerprints.
func mediumScenario(n int) rbcast.Job {
	return rbcast.Job{
		Config: rbcast.Config{Width: 48, Height: 24 + n, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

// phaseObservability exercises the flight-recorder stack end to end: a
// sweep populates /debug/requests with engine-phase spans, a watched batch
// streams live progress events to a terminal state, and the recorded
// timeline's child spans must account for the request's duration.
func phaseObservability(ctx context.Context, c *client.Client) {
	// A fresh sweep (uncached fingerprints) forces real engine work into
	// the flight recorder.
	base := rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 13, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
	}
	axes := rbcast.SweepAxes{Ts: []int{0, 1}, CrashRounds: []int{1, 2, 3, 4}}
	sw, err := c.Sweep(ctx, base, axes, 0)
	if err != nil {
		log.Fatalf("FAIL: sweep: %v", err)
	}
	for i, el := range sw.Elements {
		if el.Error != "" || el.Result == nil {
			log.Fatalf("FAIL: sweep element %d did not complete: %+v", i, el)
		}
	}
	log.Printf("sweep: %d elements complete (%d simulated, %d shared)",
		len(sw.Elements), sw.Stats.Simulations, sw.Stats.SharedResults)

	// Live progress: watch a batch with a duplicate element (for a dedup
	// hit) from submission to the terminal event.
	jobs := make([]rbcast.Job, 0, 14)
	for i := 0; i < 12; i++ {
		jobs = append(jobs, mediumScenario(i))
	}
	jobs = append(jobs, mediumScenario(0), mediumScenario(1)) // in-batch duplicates
	ack, err := c.Submit(ctx, jobs, 1)
	if err != nil {
		log.Fatalf("FAIL: batch submit: %v", err)
	}
	var events []client.ProgressEvent
	st, err := c.WatchJob(ctx, ack.ID, func(ev client.ProgressEvent) {
		events = append(events, ev)
		log.Printf("progress %s: %d/%d jobs, %d node-rounds, %d dedup hits",
			ev.State, ev.JobsDone, ev.JobsTotal, ev.NodeRounds, ev.DedupHits)
	})
	if err != nil {
		log.Fatalf("FAIL: watching job %s: %v", ack.ID, err)
	}
	if !st.Done() || len(st.Results) != len(jobs) {
		log.Fatalf("FAIL: watched job ended %q with %d results, want done/%d", st.State, len(st.Results), len(jobs))
	}
	if len(events) < 2 {
		log.Fatalf("FAIL: event stream carried %d events, want a running snapshot before the terminal one", len(events))
	}
	for i := 0; i < len(events)-1; i++ {
		if events[i].State != "running" {
			log.Fatalf("FAIL: non-terminal event %d has state %q", i, events[i].State)
		}
	}
	last := events[len(events)-1]
	if !last.Done() || last.JobsDone != len(jobs) {
		log.Fatalf("FAIL: terminal event = %+v", last)
	}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if cur.JobsDone < prev.JobsDone || cur.NodeRounds < prev.NodeRounds || cur.DedupHits < prev.DedupHits {
			log.Fatalf("FAIL: progress regressed between events %d and %d: %+v -> %+v", i-1, i, prev, cur)
		}
	}
	if last.NodeRounds == 0 || last.DedupHits < 2 {
		log.Fatalf("FAIL: terminal event missing work accounting: %+v", last)
	}
	log.Printf("events: %d snapshots, monotone, terminal at %d/%d", len(events), last.JobsDone, last.JobsTotal)

	// The flight recorder must hold the sweep with a nonzero engine phase
	// whose child spans account for the request's duration.
	dbg, err := c.DebugRequests(ctx, "sort=slowest")
	if err != nil {
		log.Fatalf("FAIL: /debug/requests: %v", err)
	}
	if !dbg.Enabled || len(dbg.Requests) == 0 {
		log.Fatalf("FAIL: flight recorder empty or disabled: enabled=%v stored=%d", dbg.Enabled, dbg.Stored)
	}
	var sweepTL *client.RequestTimeline
	for i := range dbg.Requests {
		tl := &dbg.Requests[i]
		if tl.Route != "/v1/sweep" {
			continue
		}
		if engineSeconds(tl) > 0 {
			sweepTL = tl
			break
		}
	}
	if sweepTL == nil {
		log.Fatal("FAIL: no /v1/sweep timeline with a nonzero engine span in /debug/requests")
	}
	var childSum float64
	for _, sp := range sweepTL.Spans[1:] {
		if sp.Parent == 0 {
			childSum += sp.DurationSeconds
		}
	}
	total := sweepTL.DurationSeconds
	if total <= 0 || childSum <= 0.5*total || childSum > 1.1*total {
		log.Fatalf("FAIL: sweep child spans sum to %.4fs of a %.4fs request — phases do not attribute the time", childSum, total)
	}
	jobTL := false
	for i := range dbg.Requests {
		tl := &dbg.Requests[i]
		if tl.Route == "batch-job" && tl.ID == ack.ID && engineSeconds(tl) > 0 {
			jobTL = true
			break
		}
	}
	if !jobTL {
		log.Fatalf("FAIL: no batch-job timeline for %s with a nonzero engine span", ack.ID)
	}
	log.Printf("flight recorder: sweep engine=%.1fms, child spans cover %.0f%% of the %.1fms request; job %s recorded",
		engineSeconds(sweepTL)*1e3, 100*childSum/total, total*1e3, ack.ID)
}

// engineSeconds returns the summed duration of a timeline's engine spans.
func engineSeconds(tl *client.RequestTimeline) float64 {
	var sum float64
	for _, sp := range tl.Spans {
		if sp.Name == "engine" {
			sum += sp.DurationSeconds
		}
	}
	return sum
}

// phaseSweep drives /v1/sweep through the shedding machinery: the retrying
// client must ride any 429 to a complete grid, the sweep engine must share
// work across the dead threshold axis, and a repeat sweep must be a pure
// cache read.
func phaseSweep(ctx context.Context, retrying *client.Client) {
	base := rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 12, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
	}
	axes := rbcast.SweepAxes{Ts: []int{0, 1}, CrashRounds: []int{1, 2, 3, 4}}
	sw, err := retrying.Sweep(ctx, base, axes, 0)
	if err != nil {
		log.Fatalf("FAIL: sweep did not survive the saturated daemon: %v", err)
	}
	if len(sw.Elements) != 8 {
		log.Fatalf("FAIL: sweep planned %d elements, want 8", len(sw.Elements))
	}
	for i, el := range sw.Elements {
		if el.Error != "" || el.Result == nil {
			log.Fatalf("FAIL: sweep element %d did not complete: %+v", i, el)
		}
	}
	if sw.Stats.SharedResults == 0 {
		log.Fatalf("FAIL: sweep engine shared nothing across the dead T axis: %+v", sw.Stats)
	}
	again, err := retrying.Sweep(ctx, base, axes, 0)
	if err != nil {
		log.Fatalf("FAIL: repeat sweep: %v", err)
	}
	for i, el := range again.Elements {
		if !el.Cached {
			log.Fatalf("FAIL: repeat sweep element %d was not served from cache", i)
		}
	}
	log.Printf("sweep: 8 elements complete (%d shared, %d simulated), repeat fully cached",
		sw.Stats.SharedResults, sw.Stats.Simulations)
}

// phaseBusyShed saturates the single execution slot with a slow sync run
// and asserts probes shed (429 + Retry-After) while a retrying client
// eventually succeeds.
func phaseBusyShed(ctx context.Context, noRetry, retrying *client.Client) {
	slow := slowScenario()
	slowDone := make(chan error, 1)
	go func() {
		_, err := noRetry.Run(ctx, slow.Config, slow.Plan)
		slowDone <- err
	}()

	// Wait until the slow run holds the execution slot. A probe sent
	// before it arrives would take the slot itself and shed the slow run
	// instead, leaving nothing in flight for the probes to be shed by.
	for {
		select {
		case err := <-slowDone:
			log.Fatalf("FAIL: slow run ended before it was seen in flight: %v", err)
		default:
		}
		text, err := noRetry.Metrics(ctx)
		if err != nil {
			log.Fatalf("FAIL: reading /metrics: %v", err)
		}
		if strings.Contains(text, "\nrbcastd_inflight_runs 1\n") {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Probe until the saturated daemon sheds one. The slow run holds the
	// slot for hundreds of milliseconds minimum and each probe is
	// single-digit ms, so the first probe that overlaps it must be shed;
	// if the slow run finishes before any probe sheds, the daemon never
	// enforced its in-flight bound.
	shed := false
	probeOKs := 0
probing:
	for i := 0; ; i++ {
		select {
		case err := <-slowDone:
			slowDone <- err
			break probing
		default:
		}
		_, err := noRetry.Run(ctx, tinyScenario(i%8).Config, tinyScenario(i%8).Plan)
		var se *client.StatusError
		switch {
		case err == nil:
			probeOKs++
		case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
			if se.RetryAfter <= 0 {
				log.Fatal("FAIL: busy shed came without a Retry-After hint")
			}
			shed = true
			break probing
		default:
			log.Fatalf("FAIL: probe got an indefinite or unexpected answer: %v", err)
		}
	}
	if !shed {
		log.Fatalf("FAIL: no probe was shed while the slow run was in flight (%d probes ok)", probeOKs)
	}
	log.Printf("busy shed: got 429 + Retry-After while saturated (%d probes ok first)", probeOKs)

	// A retrying client fired into the same saturation must come out with
	// a result once the slot frees.
	if _, err := retrying.Run(ctx, tinyScenario(9).Config, tinyScenario(9).Plan); err != nil {
		log.Fatalf("FAIL: retrying client did not survive saturation: %v", err)
	}

	// The slow run itself must get a definite answer: success on a fast
	// machine, or a 504 when the job deadline cut it short.
	err := <-slowDone
	var se *client.StatusError
	switch {
	case err == nil:
		log.Print("busy shed: slow run finished under the deadline")
	case errors.As(err, &se) && se.Code == http.StatusGatewayTimeout:
		log.Print("busy shed: slow run stopped by the job deadline (504)")
	default:
		log.Fatalf("FAIL: slow run ended indefinitely: %v", err)
	}
}

// phaseQueueBackpressure fills the depth-1 batch queue with a slow batch,
// asserts the next submission sheds, rides the backoff to acceptance, and
// checks the slow element was deadline-isolated from its siblings.
func phaseQueueBackpressure(ctx context.Context, noRetry, retrying *client.Client) {
	jobs := []rbcast.Job{slowScenario(), tinyScenario(20), tinyScenario(21)}
	ack, err := retrying.Submit(ctx, jobs, 0)
	if err != nil {
		log.Fatalf("FAIL: slow batch not accepted into an empty queue: %v", err)
	}

	// The queue (depth 1) now holds the slow batch for well over a second;
	// an immediate second submission must shed.
	_, err = noRetry.Submit(ctx, []rbcast.Job{tinyScenario(22)}, 0)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		log.Fatalf("FAIL: submission into a full queue was not shed with 429: %v", err)
	}
	if se.RetryAfter <= 0 {
		log.Fatal("FAIL: queue-full shed came without a Retry-After hint")
	}
	log.Print("queue backpressure: full queue shed the submission with 429 + Retry-After")

	// The same submission through the retrying client must be accepted
	// once the slow batch drains.
	ack2, err := retrying.Submit(ctx, []rbcast.Job{tinyScenario(22)}, 0)
	if err != nil {
		log.Fatalf("FAIL: retrying client never got its batch accepted: %v", err)
	}

	st, err := retrying.WaitJob(ctx, ack.ID, 0)
	if err != nil {
		log.Fatalf("FAIL: waiting for the slow batch: %v", err)
	}
	if len(st.Results) != len(jobs) {
		log.Fatalf("FAIL: slow batch returned %d results, want %d", len(st.Results), len(jobs))
	}
	deadlined := st.Results[0]
	if deadlined.Error == "" || !deadlined.Partial || deadlined.Result == nil {
		log.Fatalf("FAIL: slow element not deadline-isolated: error=%q partial=%v result=%v",
			deadlined.Error, deadlined.Partial, deadlined.Result != nil)
	}
	for i, jr := range st.Results[1:] {
		if jr.Error != "" || jr.Result == nil {
			log.Fatalf("FAIL: sibling element %d damaged by the slow job: %+v", i+1, jr)
		}
	}
	log.Printf("deadline isolation: slow element failed alone (%q), siblings completed", deadlined.Error)

	if st2, err := retrying.WaitJob(ctx, ack2.ID, 0); err != nil || len(st2.Results) != 1 || st2.Results[0].Error != "" {
		log.Fatalf("FAIL: retried batch did not complete cleanly: st=%+v err=%v", st2, err)
	}
}

// phaseFinalState asserts the daemon is still healthy and its metrics
// record what the load provoked — and that nothing panicked along the way.
func phaseFinalState(ctx context.Context, c *client.Client) {
	if err := c.Health(ctx); err != nil {
		log.Fatalf("FAIL: daemon unhealthy after load: %v", err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("FAIL: /metrics after load: %v", err)
	}
	for _, check := range []struct {
		re   string
		min  int
		what string
	}{
		{`rbcastd_shed_total\{reason="busy"\} (\d+)`, 1, "busy sheds"},
		{`rbcastd_shed_total\{reason="queue_full"\} (\d+)`, 1, "queue-full sheds"},
		{`rbcastd_run_deadline_total (\d+)`, 1, "deadline-stopped runs"},
		{`rbcastd_panics_recovered_total (\d+)`, 0, "recovered panics"},
	} {
		m := regexp.MustCompile(check.re).FindStringSubmatch(metrics)
		if m == nil {
			log.Fatalf("FAIL: metric missing from /metrics: %s", check.re)
		}
		n, _ := strconv.Atoi(m[1])
		if n < check.min {
			log.Fatalf("FAIL: %s = %d, want >= %d", check.what, n, check.min)
		}
		if check.what == "recovered panics" && n != 0 {
			log.Fatalf("FAIL: daemon recovered %d panics under pure load", n)
		}
	}
	log.Print("final state: healthy, sheds and deadline stops visible in /metrics, zero panics")
}
