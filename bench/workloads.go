package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	rbcast "repro"
	"repro/internal/scenarios"
	"repro/internal/server"
	"repro/internal/sim"
)

// goldenPath is the committed scenario-result pin, read (never written)
// from the repository root.
const goldenPath = "testdata/results.golden"

// exactAt is the one matrix scenario no workload serves: at about a second
// per run it would turn every window into a handful of samples. The traced
// pass measures it through the library instead.
const exactAt = "bv4/exact-at/16x10r1"

// hotSalts is how many salted copies of each scenario make up run-hit's
// hot set: 26 scenarios × 20 = 520 entries, half the default cache.
const hotSalts = 20

// freshSalts hands out MaxRounds salts that no other request in the
// process has used, so every "fresh" request misses the result cache.
// Salts 1..hotSalts belong to the run-hit hot set.
var freshSalts atomic.Int64

func init() { freshSalts.Store(hotSalts) }

// salted returns the job with Config.MaxRounds raised by salt (0 counts
// as sim.DefaultMaxRounds). MaxRounds is part of the fingerprint, so the
// salted job is a new cache key; every matrix scenario quiesces far below
// its bound, so the result is byte-identical to the unsalted one
// (TestSaltInvariance pins both facts).
func salted(job rbcast.Job, salt int64) rbcast.Job {
	base := job.Config.MaxRounds
	if base == 0 {
		base = sim.DefaultMaxRounds
	}
	job.Config.MaxRounds = base + int(salt)
	return job
}

// digest is a ResultHash in raw form.
type digest [32]byte

// scenario is one matrix scenario with its pinned result hash.
type scenario struct {
	name string
	job  rbcast.Job
	want digest
}

// sweepGrid is one /v1/sweep request shape with the scalar hash of each element.
type sweepGrid struct {
	name string
	spec rbcast.SweepSpec
	want []digest
}

// hotEntry is one run-hit request, encoded once.
type hotEntry struct {
	body []byte
	want digest
}

// fixture is everything the clients need that does not depend on the
// server: scenario sets, expected hashes and pre-encoded hot bodies. It is
// built before any setup clock starts.
type fixture struct {
	seed     int64
	all      []scenario // the 26 served matrix scenarios
	wave     []scenario // flood/* and cpa/*
	evidence []scenario // bv4/*, bv2/*, bracha*
	exactAt  scenario
	grids    []sweepGrid
	hot      []hotEntry
}

// newFixture loads the golden hashes, splits the matrix into the
// workload sets and computes the scalar hash of every sweep element.
func newFixture(seed int64, golden string) (*fixture, error) {
	want, err := loadGolden(golden)
	if err != nil {
		return nil, err
	}
	fx := &fixture{seed: seed}
	for _, sc := range scenarios.Matrix() {
		h, ok := want[sc.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no entry in %s", sc.Name, golden)
		}
		s := scenario{name: sc.Name, job: rbcast.Job{Config: sc.Config, Plan: sc.Plan}, want: h}
		switch {
		case sc.Name == exactAt:
			fx.exactAt = s
			continue
		case strings.HasPrefix(sc.Name, "flood/"), strings.HasPrefix(sc.Name, "cpa/"):
			fx.wave = append(fx.wave, s)
		default:
			fx.evidence = append(fx.evidence, s)
		}
		fx.all = append(fx.all, s)
	}
	for salt := int64(1); salt <= hotSalts; salt++ {
		for _, s := range fx.all {
			j := salted(s.job, salt)
			body, err := json.Marshal(server.RunRequest{Config: j.Config, Plan: j.Plan})
			if err != nil {
				return nil, err
			}
			fx.hot = append(fx.hot, hotEntry{body: body, want: s.want})
		}
	}
	for _, g := range sweepGrids() {
		jobs, err := g.spec.Elements()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", g.name, err)
		}
		for i, j := range jobs {
			res, err := rbcast.Run(j.Config, j.Plan)
			if err != nil {
				return nil, fmt.Errorf("%s[%d]: %v", g.name, i, err)
			}
			h, err := resultHash(res)
			if err != nil {
				return nil, err
			}
			g.want = append(g.want, h)
		}
		fx.grids = append(fx.grids, g)
	}
	return fx, nil
}

// sweepGrids are the two grids of `cmd/bench -sweep`: crash-round sweeps
// whose dead threshold axis and shared wavefront prefixes are what the
// sweep engine exists to exploit.
func sweepGrids() []sweepGrid {
	crashRounds := make([]int, 24)
	for i := range crashRounds {
		crashRounds[i] = i + 1
	}
	return []sweepGrid{
		{name: "flood/40x30", spec: rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}, CrashRounds: crashRounds},
		}},
		{name: "cpa/32x24", spec: rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 32, Height: 24, Radius: 2, Protocol: rbcast.ProtocolCPA, T: 2, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Seeds: []int64{1, 2}, CrashRounds: crashRounds[:16]},
		}},
	}
}

// loadGolden parses a "name<TAB>hash" golden file.
func loadGolden(path string) (map[string]digest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]digest)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, hash, ok := strings.Cut(line, "\t")
		var d digest
		if n, err := hex.Decode(d[:], []byte(hash)); !ok || err != nil || n != len(d) {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[name] = d
	}
	return out, nil
}

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// clients is the closed-loop concurrency: one goroutine and at most
	// one connection each.
	clients int
	// tail is the percentile latency_tail_ms reports: the highest of
	// p99/p95/p90 that the workload's sample count supports with ten
	// samples beyond it (see tailPercentile), fixed so the metric means
	// the same thing in every run.
	tail float64
	// route is the request path whose root span and duration histogram
	// describe an operation on the server, and requests how many requests
	// to it one operation sends (0 means 1).
	route    string
	requests int
	// maxJobs is the server's retained-job bound (0: rbcastd's default).
	maxJobs int
	// prefill is the cold pass timed as setup_s; op is one operation.
	prefill func(h *harness) error
	op      func(h *harness, c *client) opResult
}

// workloads lists the five mixes in run order.
func workloads() []workload {
	return []workload{
		{
			name: "run-hit", clients: 2, tail: 99, route: "/v1/run",
			prefill: prefillHot,
			op:      opHit,
		},
		{
			name: "miss-wave", clients: 2, tail: 99, route: "/v1/run",
			prefill: func(h *harness) error { return prefillRuns(h, h.fx.wave) },
			op:      func(h *harness, c *client) opResult { return opMiss(h, c, h.fx.wave) },
		},
		{
			name: "miss-evidence", clients: 2, tail: 99, route: "/v1/run",
			prefill: func(h *harness) error { return prefillRuns(h, h.fx.evidence) },
			op:      func(h *harness, c *client) opResult { return opMiss(h, c, h.fx.evidence) },
		},
		{
			name: "sweep", clients: 1, tail: 90, route: "/v1/sweep", requests: 2,
			prefill: prefillSweeps,
			op:      opSweep,
		},
		{
			// A 32-job table fills during warm-up, so the window sees the
			// steady state a long-running daemon reaches (every submission
			// evicts the oldest finished job) instead of a table still
			// filling at a rate set by the host's speed.
			name: "batch", clients: 1, tail: 95, route: "/v1/batch", maxJobs: 32,
			prefill: prefillBatch,
			op:      opBatch,
		},
	}
}

// opResult is one operation's outcome as the closed loop records it.
type opResult struct {
	start time.Time
	// lat runs from sending the first request until the last response
	// body is fully read; verification happens after it.
	lat time.Duration
	// bytes is the size of the response that carries the results.
	bytes int
	err   error
}

// do sends one request and reads the whole response into c.buf; a
// non-2xx status is an error.
func (h *harness) do(c *client, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return resp, nil
}

// postRun sends one /v1/run and checks its cache header and result hash.
// With a memo, a body identical to the one last verified through it
// needs no new hash, and a newly verified body is stored there.
func postRun(h *harness, c *client, body []byte, want digest, cache string, memo *[]byte) opResult {
	r := opResult{start: time.Now()}
	resp, err := h.do(c, http.MethodPost, "/v1/run", body)
	r.lat = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	r.bytes = c.buf.Len()
	c.keep(body)
	if got := resp.Header.Get("X-Rbcast-Cache"); got != cache {
		r.err = fmt.Errorf("/v1/run: X-Rbcast-Cache %q, want %q", got, cache)
		return r
	}
	if memo != nil && bytes.Equal(*memo, c.buf.Bytes()) {
		return r
	}
	raw, ok := cutResult(c.buf.Bytes())
	if !ok {
		r.err = fmt.Errorf("/v1/run: malformed body %.80q", c.buf.Bytes())
		return r
	}
	if r.err = verify(raw, want); r.err == nil && memo != nil {
		*memo = bytes.Clone(c.buf.Bytes())
	}
	return r
}

// opHit requests a uniformly drawn hot entry.
func opHit(h *harness, c *client) opResult {
	if c.verified == nil {
		c.verified = make([][]byte, len(h.fx.hot))
	}
	i := c.rng.Intn(len(h.fx.hot))
	return postRun(h, c, h.fx.hot[i].body, h.fx.hot[i].want, "hit", &c.verified[i])
}

// postFresh runs one scenario under a fresh salt.
func postFresh(h *harness, c *client, s scenario) opResult {
	j := salted(s.job, freshSalts.Add(1))
	body, err := json.Marshal(server.RunRequest{Config: j.Config, Plan: j.Plan})
	if err != nil {
		return opResult{start: time.Now(), err: err}
	}
	return postRun(h, c, body, s.want, "miss", nil)
}

// opMiss runs a uniformly drawn scenario of set under a fresh salt.
func opMiss(h *harness, c *client, set []scenario) opResult {
	return postFresh(h, c, set[c.rng.Intn(len(set))])
}

// opSweep sends one sweep of each grid, back to back, each under a fresh
// salt, and checks every element against its scalar hash. The pair is one
// operation: the flood sweep takes half again as long as the cpa one, and
// single-grid operations would put every latency percentile on the edge
// between two clusters.
func opSweep(h *harness, c *client) opResult {
	r := opResult{start: time.Now()}
	for _, g := range h.fx.grids {
		base := salted(g.spec.Base, freshSalts.Add(1))
		body, err := json.Marshal(server.SweepRequest{
			Base: server.RunRequest{Config: base.Config, Plan: base.Plan},
			Axes: g.spec.Axes,
		})
		if err != nil {
			r.err = err
			return r
		}
		start := time.Now()
		_, err = h.do(c, http.MethodPost, "/v1/sweep", body)
		r.lat += time.Since(start)
		if err != nil {
			r.err = err
			return r
		}
		r.bytes += c.buf.Len()
		c.keep(body)
		if r.err = checkSweep(c.buf.Bytes(), g, &c.sweeps); r.err != nil {
			return r
		}
	}
	return r
}

// sweepTally sums the sweep engine's trailer statistics.
type sweepTally struct {
	sweeps, sims, forks          int64
	nodeRounds, scalarNodeRounds int64
}

// checkSweep verifies an NDJSON sweep body: header, one fresh element per
// grid element in order, stats trailer.
func checkSweep(body []byte, g sweepGrid, tally *sweepTally) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(g.want)+2 {
		return fmt.Errorf("%s: %d NDJSON lines, want %d", g.name, len(lines), len(g.want)+2)
	}
	for i, want := range g.want {
		line := lines[i+1]
		if bytes.HasSuffix(line, []byte(`,"cached":true}`)) {
			return fmt.Errorf("%s[%d]: served from cache, want a fresh execution", g.name, i)
		}
		raw, ok := cutResult(line)
		if !ok {
			return fmt.Errorf("%s[%d]: malformed element %.80q", g.name, i, line)
		}
		if err := verify(raw, want); err != nil {
			return fmt.Errorf("%s[%d]: %v", g.name, i, err)
		}
	}
	var tr server.SweepTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		return fmt.Errorf("%s: trailer: %v", g.name, err)
	}
	tally.sweeps++
	tally.sims += int64(tr.Stats.Simulations)
	tally.forks += int64(tr.Stats.Forks)
	tally.nodeRounds += tr.Stats.NodeRounds
	tally.scalarNodeRounds += tr.Stats.ScalarNodeRounds
	return nil
}

// batchSize is how many fresh jobs one batch operation submits.
const batchSize = 16

// opBatch submits batchSize fresh jobs drawn from all 26 scenarios.
func opBatch(h *harness, c *client) opResult {
	picks := make([]scenario, batchSize)
	for i := range picks {
		picks[i] = h.fx.all[c.rng.Intn(len(h.fx.all))]
	}
	return runBatch(h, c, picks)
}

// runBatch submits the scenarios under fresh salts, follows the job's
// progress stream to its terminal event, fetches the results and checks
// each element.
func runBatch(h *harness, c *client, picks []scenario) opResult {
	req := server.BatchRequest{Jobs: make([]server.RunRequest, len(picks))}
	for i, s := range picks {
		j := salted(s.job, freshSalts.Add(1))
		req.Jobs[i] = server.RunRequest{Config: j.Config, Plan: j.Plan}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return opResult{start: time.Now(), err: err}
	}
	r := opResult{start: time.Now()}
	r.err = func() error {
		if _, err := h.do(c, http.MethodPost, "/v1/batch", body); err != nil {
			return err
		}
		var ack server.BatchResponse
		if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil {
			return fmt.Errorf("/v1/batch: %v", err)
		}
		if _, err := h.do(c, http.MethodGet, "/v1/jobs/"+ack.ID+"/events", nil); err != nil {
			return err
		}
		if err := checkEvents(c.buf.Bytes(), len(picks)); err != nil {
			return fmt.Errorf("%s events: %v", ack.ID, err)
		}
		_, err := h.do(c, http.MethodGet, "/v1/jobs/"+ack.ID, nil)
		return err
	}()
	r.lat = time.Since(r.start)
	if r.err != nil {
		return r
	}
	r.bytes = c.buf.Len()
	c.keep(body)
	c.keepStatus(c.buf.Bytes())
	r.err = checkStatus(c.buf.Bytes(), picks)
	return r
}

// checkEvents checks that a finished progress stream ends in exactly one
// terminal event that accounts for every job.
func checkEvents(stream []byte, jobs int) error {
	sc := bufio.NewScanner(bytes.NewReader(stream))
	var last server.ProgressEvent
	terminal := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return err
		}
		if last.State == "done" {
			terminal++
		}
	}
	if terminal != 1 || last.State != "done" || last.JobsDone != jobs || last.JobsTotal != jobs || last.Errors != 0 {
		return fmt.Errorf("stream ends with %+v after %d terminal events", last, terminal)
	}
	return nil
}

// checkStatus verifies a finished /v1/jobs/{id} body element by element.
func checkStatus(body []byte, picks []scenario) error {
	var st struct {
		State   string `json:"state"`
		Results []struct {
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
			Cached bool            `json:"cached"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("job status: %v", err)
	}
	if st.State != "done" || len(st.Results) != len(picks) {
		return fmt.Errorf("job status %q with %d results, want done with %d", st.State, len(st.Results), len(picks))
	}
	for i, el := range st.Results {
		switch {
		case el.Error != "":
			return fmt.Errorf("element %d (%s): %s", i, picks[i].name, el.Error)
		case el.Cached:
			return fmt.Errorf("element %d (%s): served from cache, want a fresh execution", i, picks[i].name)
		}
		if err := verify(el.Result, picks[i].want); err != nil {
			return fmt.Errorf("element %d (%s): %v", i, picks[i].name, err)
		}
	}
	return nil
}

// prefillHot fills the cache with the 520 hot entries, split across the
// workload's clients.
func prefillHot(h *harness) error {
	return h.split(len(h.fx.hot), func(c *client, i int) opResult {
		return postRun(h, c, h.fx.hot[i].body, h.fx.hot[i].want, "miss", nil)
	})
}

// prefillRuns runs each scenario of set once under a fresh salt.
func prefillRuns(h *harness, set []scenario) error {
	return h.split(len(set), func(c *client, i int) opResult { return postFresh(h, c, set[i]) })
}

// prefillSweeps runs each grid once.
func prefillSweeps(h *harness) error {
	return h.split(1, func(c *client, _ int) opResult { return opSweep(h, c) })
}

// prefillBatch runs one batch holding every served scenario once.
func prefillBatch(h *harness) error {
	return h.split(1, func(c *client, _ int) opResult { return runBatch(h, c, h.fx.all) })
}

// clientRNG derives client c's request stream for a workload from the seed.
func clientRNG(seed int64, wl, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(wl)*101 + int64(c)))
}
