package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

// partialRound is the crash round whose T = 1 sweep element the runner of
// TestRenderedBodiesMatchEncodingJSON cuts to a partial result.
const partialRound = 50

// TestRenderedBodiesMatchEncodingJSON: every body that carries a Result —
// /v1/run on miss and hit, each /v1/sweep line and
// /v1/jobs/{id} running and done — is byte-identical to encoding/json's
// rendering of the value it decodes to. Decoding is lossless, so this is
// the wire contract the packed renderer must keep.
func TestRenderedBodiesMatchEncodingJSON(t *testing.T) {
	// The runner holds executions only once the batch below arms the
	// gate: the sweeps run first through the same runner. It marks one
	// element partial and keeps the Result that element shares with
	// others, so a partial element sits inside a run of shared ones.
	release := make(chan struct{})
	var gated atomic.Bool
	srv := New(Options{
		SweepRunner: func(jobs []rbcast.Job, o rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
			if gated.Load() {
				<-release
			}
			out, stats := rbcast.RunSweepJobs(jobs, o)
			for i, j := range jobs {
				if j.Plan.CrashRound == partialRound && j.Config.T == 1 {
					out[i].Err = fmt.Errorf("stub: %w", rbcast.ErrDeadline)
				}
			}
			return out, stats
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

	// A sweep whose elements share executions, and whose runs of shared
	// elements are broken by every other kind. Flood ignores T, so T = 0
	// and T = 1 share each crash round's execution, and crash rounds 40
	// and 50 lie past the run's horizon, so they share the trunk's. T = 0
	// repeats (duplicates), T = -1 fails, crash round 2 at T = 0 is cached
	// by the sweep before, and the runner cuts T = 1 at crash round 50.
	flood := SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2},
		},
	}
	postJSON(t, ts, "/v1/sweep", flood) // fills the cache
	flood.Axes = rbcast.SweepAxes{Ts: []int{-1, 0, 0, 1}, CrashRounds: []int{1, 2, 40, partialRound}}
	resp, body = postJSON(t, ts, "/v1/sweep", flood)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	lines = bytes.SplitAfter(body, []byte("\n"))
	lines = lines[1 : len(lines)-2] // the elements, without header, trailer and empty tail
	kinds = map[string]int{}
	results := make([]string, len(lines)) // each element's result member
	for i, line := range lines {
		var el SweepElement
		decodeInto(t, line, &el)
		sameAsMarshal(t, "sweep element", line, el)
		switch {
		case el.Partial:
			kinds["partial"]++
		case el.Error != "":
			kinds["error"]++
		case el.Cached:
			kinds["cached"]++
		default:
			kinds["fresh"]++
		}
		if el.Result != nil {
			results[i] = string(mustMarshal(t, el.Result))
		}
	}
	if want := (map[string]int{"error": 4, "cached": 5, "fresh": 6, "partial": 1}); !reflect.DeepEqual(kinds, want) {
		t.Errorf("sweep element kinds %v, want %v", kinds, want)
	}
	// The elements of one execution carry one result, wall_ns included:
	// crash round 1's, and the trunk's that crash rounds 40 and 50 share.
	for _, shared := range [][]int{{4, 8, 12}, {6, 7, 10, 11, 14, 15}} {
		for _, i := range shared[1:] {
			if results[i] != results[shared[0]] {
				t.Errorf("elements %d and %d share an execution but carry different results", shared[0], i)
			}
		}
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
			line, err := appendSweepElement(nil, 7, &e, nil)
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
const runHitAllocs = 19

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
// counts the writes attempted, and keeps the bytes it accepted and the
// number of lines each accepted write carried.
type failingWriter struct {
	discardWriter
	ok, writes int
	body       []byte
	lines      []int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errors.New("client went away")
	}
	w.body = append(w.body, p...)
	w.lines = append(w.lines, bytes.Count(p, []byte("\n")))
	return len(p), nil
}

// TestSweepStopsWhenClientLeaves: a sweep body that spans several batches
// goes out one batch per write, and once a write fails the handler
// neither writes nor renders again.
func TestSweepStopsWhenClientLeaves(t *testing.T) {
	body := mustMarshal(t, SweepRequest{
		Base: RunRequest{
			Config: rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{CrashRounds: []int{1, 2, 3, 4, 5, 6, 7, 8}},
	})
	sweep := func(ok int) *failingWriter {
		w := &failingWriter{discardWriter: discardWriter{header: http.Header{}}, ok: ok}
		New(Options{}).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
		return w
	}
	stayed := sweep(math.MaxInt)
	decodeSweepStream(t, stayed.body)
	if lines := bytes.Count(stayed.body, []byte("\n")); len(stayed.body) < 3*ndjsonBatch || stayed.writes >= lines {
		t.Fatalf("a %d-byte body of %d lines in %d writes: want at least three batches, fewer writes than lines",
			len(stayed.body), lines, stayed.writes)
	}
	// The first batch goes out whole and the second write fails: nothing
	// is written after it.
	left := sweep(1)
	if left.writes != 2 || len(left.body) < ndjsonBatch || left.lines[0] != stayed.lines[0] || !bytes.HasSuffix(left.body, []byte("\n")) {
		t.Errorf("the client left at the second write: %d writes, %d bytes and %v lines accepted; want 2 writes after a first batch of %d lines",
			left.writes, len(left.body), left.lines, stayed.lines[0])
	}

	// writeLines renders no line after the failed write: with four lines
	// to a batch, a failure at write k leaves 4k lines rendered.
	line := append(bytes.Repeat([]byte("x"), ndjsonBatch/4-1), '\n')
	for ok := 0; ok < 3; ok++ {
		w := &failingWriter{ok: ok}
		rendered := 0
		writeLines(w, nil, 40, func(dst []byte, i int) ([]byte, error) {
			rendered++
			return append(dst, line...), nil
		})
		if w.writes != ok+1 || rendered != 4*(ok+1) {
			t.Errorf("write %d fails: %d writes, %d lines rendered; want %d and %d", ok+1, w.writes, rendered, ok+1, 4*(ok+1))
		}
	}
}

// TestWriteLinesSkipsUnrenderableLine: a line that fails to render leaves
// none of its bytes in the body, and the lines around it still go out.
func TestWriteLinesSkipsUnrenderableLine(t *testing.T) {
	w := &failingWriter{ok: math.MaxInt}
	writeLines(w, nil, 3, func(dst []byte, i int) ([]byte, error) {
		dst = strconv.AppendInt(dst, int64(i), 10)
		if i == 1 {
			return dst, errors.New("cannot render")
		}
		return append(dst, '\n'), nil
	})
	if got := string(w.body); got != "0\n2\n" || w.writes != 1 {
		t.Errorf("body %q in %d writes, want \"0\\n2\\n\" in one", got, w.writes)
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

// TestBatchSimTotalsCountEachExecutionOnce: three batch jobs that differ
// only in T are one flood simulation (flood ignores T), so the per-run
// totals count one run and its broadcasts once, not once per job.
func TestBatchSimTotalsCountEachExecutionOnce(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var jobs []RunRequest
	for _, tt := range []int{0, 1, 2} {
		jobs = append(jobs, RunRequest{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, T: tt, Value: 1},
		})
	}
	want, err := rbcast.Run(jobs[0].Config, jobs[0].Plan)
	if err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, ts, jobs)
	_, metrics := getBody(t, ts, "/metrics")
	for _, line := range []string{
		"rbcastd_sim_runs_total 1\n",
		fmt.Sprintf("rbcastd_sim_broadcasts_total %d\n", want.Broadcasts),
		fmt.Sprintf("rbcastd_sim_deliveries_total %d\n", want.Deliveries),
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(line))
		}
	}
}

// TestSweepElementsSharePackedResults: the elements of one execution are
// packed once, so the cache holds one *rbcast.PackedResult per
// simulation under all of their fingerprints. Flood ignores T, and crash
// rounds past the run's horizon share the trunk's final state, so this
// grid's twelve elements share three simulations.
func TestSweepElementsSharePackedResults(t *testing.T) {
	srv := New(Options{})
	spec := rbcast.SweepSpec{
		Base: rbcast.Job{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}, CrashRounds: []int{1, 2, 40, 50}},
	}
	jobs, err := spec.Elements()
	if err != nil {
		t.Fatal(err)
	}
	results, stats := srv.resolveJobs(nil, 0, jobs, 0, nil)
	if stats.Simulations != 3 {
		t.Fatalf("%d simulations, want 3 (forks at crash rounds 1 and 2, the trunk for 40 and 50)", stats.Simulations)
	}
	shared := make(map[*rbcast.PackedResult]int)
	for i, el := range results {
		res, ok := srv.cache.Get(jobs[i].Fingerprint())
		if !ok || res != el.res {
			t.Fatalf("element %d: cache holds %p (present %v), the response %p", i, res, ok, el.res)
		}
		shared[res]++
	}
	if len(shared) != stats.Simulations {
		t.Errorf("%d packed results in the cache for %d simulations", len(shared), stats.Simulations)
	}
	// Concurrent requests render the shared results at once, each through
	// its own memo, and every line equals its unshared rendering.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var memo resultMemo
			for i := range results {
				got, err := appendSweepElement(nil, i, &results[i], &memo)
				want, werr := appendSweepElement(nil, i, &results[i], nil)
				if err != nil || werr != nil || !bytes.Equal(got, want) {
					t.Errorf("element %d: memo render differs (%v, %v)", i, err, werr)
				}
			}
		}()
	}
	wg.Wait()
}
