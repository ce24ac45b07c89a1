package main

// The traced pass: each workload runs once untraced and once with the
// flight recorder armed. Serving phases come from the recorder's
// rbcastd_phase_seconds sums and the per-route duration histograms on
// /metrics, differenced across the traced window; decode and fingerprint,
// which have no span, are timed here over the window's own request
// bodies; the engine split comes from replay.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	rbcast "repro"
	"repro/internal/server"
)

const (
	// traceRecorder is the traced server's flight-recorder capacity.
	traceRecorder = 4096
	// traceWarmup precedes each of the traced pass's two windows per
	// workload; each window lasts a quarter of the run length, so the
	// pass over all five workloads stays within a few run lengths.
	traceWarmup = time.Second
)

// mappedSpans are the span names the layer split reads or knowingly
// ignores. A span outside this set means the server grew a phase the
// split does not attribute yet.
var mappedSpans = map[string]bool{
	"/v1/run": true, "/v1/sweep": true, "/v1/batch": true, "/v1/jobs/{id}": true, "batch-job": true,
	"cache_hit": true, "cache_miss": true, "singleflight_wait": true, "slot_wait": true,
	"engine": true, "encode": true, "cache_scan": true, "sweep_plan": true, "sweep_unit": true,
	"fork": true, "queue_wait": true, "job": true,
}

// accounting compares a /v1/run workload's layers with what clients saw.
type accounting struct {
	ClientMeanUS float64 `json:"client_mean_us"`
	// LayerSumUS adds every layer, unattributed included.
	LayerSumUS float64 `json:"layer_sum_us"`
	// NamedFrac is the share of the client mean the named layers (all
	// but server.unattributed_us) explain.
	NamedFrac float64 `json:"named_frac"`
}

// traceReport is the traced pass's output.
type traceReport struct {
	// Layers holds every per-layer metric as <workload>.<metric>.
	Layers     map[string]float64    `json:"layers"`
	Accounting map[string]accounting `json:"accounting"`
	Replay     []replayRow           `json:"replay"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	FirstError string                `json:"first_error,omitempty"`
}

func (r *traceReport) fail(err error) {
	r.Failed++
	if r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// traceAll runs the traced pass over every workload, then the engine
// split over the miss-wave and miss-evidence scenario sets.
func traceAll(fx *fixture, length time.Duration) traceReport {
	rep := traceReport{Layers: map[string]float64{}, Accounting: map[string]accounting{}}
	for i, wl := range workloads() {
		layers, acc, err := traceWorkload(fx, i, wl, length, &rep)
		if err != nil {
			rep.fail(fmt.Errorf("%s: %w", wl.name, err))
			continue
		}
		for k, v := range layers {
			rep.Layers[wl.name+"."+k] = v
		}
		if acc != nil {
			rep.Accounting[wl.name] = *acc
		}
	}
	for _, set := range []struct {
		workload string
		scs      []scenario
	}{{"miss-wave", fx.wave}, {"miss-evidence", fx.evidence}} {
		var rows []replayRow
		for _, s := range set.scs {
			rep.Attempted++
			row, err := split(s)
			if err != nil {
				rep.fail(fmt.Errorf("replay %s: %w", s.name, err))
				continue
			}
			rows = append(rows, row)
		}
		rep.Replay = append(rep.Replay, rows...)
		sched, handle, ns, us := engineShares(rows)
		rep.Layers[set.workload+".sim.sched_share"] = sched
		rep.Layers[set.workload+".protocol.handle_share"] = handle
		rep.Layers[set.workload+".protocol.ns_per_delivery"] = ns
		if set.workload == "miss-evidence" {
			rep.Layers[set.workload+".evidence.us_per_eval"] = us
		}
	}
	rep.Attempted++
	row, err := split(fx.exactAt)
	if err != nil {
		rep.fail(fmt.Errorf("replay %s: %w", fx.exactAt.name, err))
	} else {
		rep.Replay = append(rep.Replay, row)
		rep.Layers["miss-evidence.rbcast.exact_at_ms"] = row.EngineUS / 1e3
		rep.Layers["miss-evidence.protocol.exact_at_handle_share"] = row.ReplayUS / row.EngineUS
	}
	return rep
}

// traceWorkload measures one workload untraced and traced and derives
// its per-layer metrics (unqualified names).
func traceWorkload(fx *fixture, idx int, wl workload, length time.Duration, rep *traceReport) (map[string]float64, *accounting, error) {
	runtime.GC()
	h := newHarness(fx, wl, idx)
	defer func() {
		h.close()
		attempted, failed, first := h.counts()
		rep.Attempted += attempted
		rep.Failed += failed
		if first != nil && rep.FirstError == "" {
			rep.FirstError = fmt.Sprintf("%s: %v", wl.name, first)
		}
	}()
	part := length / 4
	if _, err := h.setup(0); err != nil {
		return nil, nil, err
	}
	stopProbe := probeHost()
	plain := h.measure(traceWarmup, part, false).throughput(h.samples()) / hostSpeed(stopProbe())

	if _, err := h.setup(traceRecorder); err != nil {
		return nil, nil, err
	}
	h.tracing = true
	for _, c := range h.clients {
		c.sweeps = sweepTally{}
	}
	stopProbe = probeHost()
	w := h.measure(traceWarmup, part, true)
	traced := w.throughput(h.samples()) / hostSpeed(stopProbe())
	samples := w.completed(h.samples())
	if err := h.checkSpans(); err != nil {
		return nil, nil, err
	}

	d := make(map[string]float64)
	for k, v := range w.metrics[1] {
		d[k] = v - w.metrics[0][k]
	}
	route := func(path string) (count, meanUS float64) {
		count = d[fmt.Sprintf("rbcastd_request_duration_seconds_count{path=%q}", path)]
		return count, d[fmt.Sprintf("rbcastd_request_duration_seconds_sum{path=%q}", path)] / count * 1e6
	}
	phaseSum := func(name string) float64 { return d[fmt.Sprintf("rbcastd_phase_seconds_sum{phase=%q}", name)] }
	phaseMean := func(name string) float64 {
		return phaseSum(name) / d[fmt.Sprintf("rbcastd_phase_seconds_count{phase=%q}", name)] * 1e6
	}
	ops, rootUS := route(wl.route)
	if ops == 0 {
		return nil, nil, fmt.Errorf("no %s request completed in the traced window", wl.route)
	}
	perOp := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += phaseSum(n)
		}
		return s / ops * 1e6
	}

	var bodies, statuses [][]byte
	var tally sweepTally
	for _, c := range h.clients {
		bodies = append(bodies, c.bodies...)
		statuses = append(statuses, c.statuses...)
		tally.add(c.sweeps)
	}
	decodeUS, fingerprintUS, err := requestCosts(wl.route, bodies)
	if err != nil {
		return nil, nil, err
	}
	var okN, latSum, bytesSum float64
	for _, s := range samples {
		if s.ok {
			okN++
			latSum += float64(s.lat) / float64(time.Microsecond)
			bytesSum += float64(s.bytes)
		}
	}
	// Sweep operations send one request per grid; per-layer figures are
	// per request.
	perOpRequests := float64(max(wl.requests, 1))
	clientUS := latSum / okN / perOpRequests
	l := map[string]float64{
		"server.decode_us":      decodeUS,
		"rbcast.fingerprint_us": fingerprintUS,
		"server.response_kb":    bytesSum / okN / perOpRequests / 1024,
		"go.gc_cpu_frac":        w.gcCPU / w.cpu,
		"obs.overhead_frac":     1 - traced/plain,
		"http.rtt_us":           clientUS - rootUS,
		"server.encode_us":      perOp("encode"),
	}
	var acc *accounting
	switch wl.route {
	case "/v1/run":
		cache := perOp("cache_hit", "singleflight_wait", "cache_miss")
		engine := perOp("engine")
		unattributed := rootUS - cache - l["server.encode_us"] - decodeUS - fingerprintUS
		l["server.unattributed_us"] = unattributed
		if wl.name == "run-hit" {
			l["scache.hit_us"] = phaseMean("cache_hit")
		} else {
			l["scache.miss_self_us"] = cache - engine
			l["rbcast.engine_us"] = phaseMean("engine")
		}
		named := l["http.rtt_us"] + decodeUS + fingerprintUS + cache + l["server.encode_us"]
		acc = &accounting{ClientMeanUS: clientUS, LayerSumUS: named + unattributed, NamedFrac: named / clientUS}
	case "/v1/sweep":
		l["server.cache_scan_us"] = perOp("cache_scan")
		l["rbcast.sweep_plan_us"] = perOp("sweep_plan")
		l["rbcast.sweep_engine_ms"] = perOp("engine") / 1e3
		l["rbcast.node_round_ratio"] = float64(tally.scalarNodeRounds) / float64(tally.nodeRounds)
		l["rbcast.sims_per_sweep"] = float64(tally.sims) / float64(tally.sweeps)
		l["rbcast.forks_per_sweep"] = float64(tally.forks) / float64(tally.sweeps)
	case "/v1/batch":
		_, eventsUS := route("/v1/jobs/{id}/events")
		_, fetchUS := route("/v1/jobs/{id}")
		l["http.rtt_us"] = clientUS - rootUS - eventsUS - fetchUS
		l["server.submit_us"] = rootUS
		l["server.queue_wait_us"] = phaseMean("queue_wait")
		l["rbcast.batch_engine_ms"] = phaseMean("engine") / 1e3
		l["server.fetch_us"] = fetchUS
		l["rbcast.engine_us"] = phaseMean("job")
		// The job-status handler has no encode span; time its encoding of
		// the same statuses here.
		if l["server.encode_us"], err = statusEncodeUS(statuses); err != nil {
			return nil, nil, err
		}
	}
	return l, acc, nil
}

func (t *sweepTally) add(o sweepTally) {
	t.sweeps += o.sweeps
	t.sims += o.sims
	t.forks += o.forks
	t.nodeRounds += o.nodeRounds
	t.scalarNodeRounds += o.scalarNodeRounds
}

// scrape reads the server's /metrics exposition in process, keyed by
// series (name plus labels).
func (h *harness) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// checkSpans reads /debug/requests and warns about span names the layer
// split does not map.
func (h *harness) checkSpans() error {
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	var dr server.DebugRequestsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
		return fmt.Errorf("/debug/requests: %v", err)
	}
	if !dr.Enabled || dr.Stored == 0 {
		return fmt.Errorf("/debug/requests holds no timelines")
	}
	unmapped := make(map[string]bool)
	for _, tl := range dr.Requests {
		for _, sp := range tl.Spans {
			if !mappedSpans[sp.Name] && !unmapped[sp.Name] {
				unmapped[sp.Name] = true
				fmt.Fprintf(os.Stderr, "bench: %s: span %q is not in the layer split\n", h.wl.name, sp.Name)
			}
		}
	}
	return nil
}

// decodeStrict decodes a request body the way internal/server does:
// unknown fields and trailing data are errors.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// requestCosts times, per operation, the strict decode of the window's
// request bodies and the fingerprinting of the jobs each one names (one
// run, every sweep element, every batch job).
func requestCosts(route string, bodies [][]byte) (decodeUS, fingerprintUS float64, err error) {
	if len(bodies) == 0 {
		return 0, 0, fmt.Errorf("no request bodies kept from the traced window")
	}
	newReq := func() any {
		switch route {
		case "/v1/sweep":
			return new(server.SweepRequest)
		case "/v1/batch":
			return new(server.BatchRequest)
		default:
			return new(server.RunRequest)
		}
	}
	jobs := make([][]rbcast.Job, len(bodies))
	for i, b := range bodies {
		v := newReq()
		if err := decodeStrict(b, v); err != nil {
			return 0, 0, err
		}
		switch r := v.(type) {
		case *server.RunRequest:
			jobs[i] = []rbcast.Job{{Config: r.Config, Plan: r.Plan}}
		case *server.SweepRequest:
			spec := rbcast.SweepSpec{Base: rbcast.Job{Config: r.Base.Config, Plan: r.Base.Plan}, Axes: r.Axes}
			if jobs[i], err = spec.Elements(); err != nil {
				return 0, 0, err
			}
		case *server.BatchRequest:
			for _, j := range r.Jobs {
				jobs[i] = append(jobs[i], rbcast.Job{Config: j.Config, Plan: j.Plan})
			}
		}
	}
	decodeUS = perItem(len(bodies), func(i int) { decodeStrict(bodies[i], newReq()) })
	var sink string
	fingerprintUS = perItem(len(jobs), func(i int) {
		for _, j := range jobs[i] {
			sink = j.Fingerprint()
		}
	})
	_ = sink
	return decodeUS, fingerprintUS, nil
}

// statusEncodeUS times json.Marshal of the window's job statuses.
func statusEncodeUS(bodies [][]byte) (float64, error) {
	if len(bodies) == 0 {
		return 0, fmt.Errorf("no job statuses kept from the traced window")
	}
	sts := make([]server.JobStatus, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b, &sts[i]); err != nil {
			return 0, err
		}
	}
	return perItem(len(sts), func(i int) { json.Marshal(sts[i]) }), nil
}

// perItem is fn's median time per item in microseconds over passes that
// each cover every item.
func perItem(n int, fn func(i int)) float64 {
	return timed(func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / float64(n)
}
