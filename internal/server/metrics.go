package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// healthResponse is the /healthz body.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleMetrics renders the Prometheus text exposition format (v0.0.4):
// server counters (requests, cache, jobs) plus the aggregated
// internal/metrics simulation totals across every executed run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	writeHeader(&b, "rbcastd_requests_total", "counter", "HTTP requests served, by route.")
	paths := make([]string, 0, len(s.requestsByPath))
	for p := range s.requestsByPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&b, "rbcastd_requests_total{path=%q} %d\n", p, s.requestsByPath[p].Load())
	}

	writeHeader(&b, "rbcastd_request_duration_seconds", "histogram",
		"HTTP request duration in seconds, by route.")
	for _, p := range paths {
		cum, count, sum := s.histByPath[p].snapshot()
		for i, ub := range durationBuckets {
			fmt.Fprintf(&b, "rbcastd_request_duration_seconds_bucket{path=%q,le=%q} %d\n",
				p, strconv.FormatFloat(ub, 'g', -1, 64), cum[i])
		}
		fmt.Fprintf(&b, "rbcastd_request_duration_seconds_bucket{path=%q,le=\"+Inf\"} %d\n",
			p, cum[len(cum)-1])
		fmt.Fprintf(&b, "rbcastd_request_duration_seconds_sum{path=%q} %g\n", p, sum)
		fmt.Fprintf(&b, "rbcastd_request_duration_seconds_count{path=%q} %d\n", p, count)
	}

	cs := s.cache.Stats()
	writeCount(&b, "rbcastd_cache_hits_total", "counter",
		"Result-cache hits, including single-flight coalesced waiters.", int64(cs.Hits))
	writeCount(&b, "rbcastd_cache_misses_total", "counter",
		"Result-cache misses that triggered a simulation execution.", int64(cs.Misses))
	writeCount(&b, "rbcastd_cache_evictions_total", "counter",
		"Result-cache LRU evictions.", int64(cs.Evictions))
	writeCount(&b, "rbcastd_cache_entries", "gauge",
		"Resident result-cache entries.", int64(cs.Entries))

	writeCount(&b, "rbcastd_inflight_runs", "gauge",
		"Scenario executions currently running (sync and batch).", s.inflightRuns.Load())
	writeCount(&b, "rbcastd_jobs_queue_depth", "gauge",
		"Batch jobs accepted but not yet finished.", s.queueDepth.Load())
	writeCount(&b, "rbcastd_jobs_queue_limit", "gauge",
		"Batch queue admission bound (submissions over it are shed with 429).",
		int64(s.opts.QueueDepth))
	writeCount(&b, "rbcastd_inflight_limit", "gauge",
		"Concurrent execution bound (0 = unbounded).", int64(s.opts.MaxInflight))

	writeHeader(&b, "rbcastd_shed_total", "counter",
		"Requests shed with 429 + Retry-After, by reason.")
	fmt.Fprintf(&b, "rbcastd_shed_total{reason=\"queue_full\"} %d\n", s.shedQueueFull.Load())
	fmt.Fprintf(&b, "rbcastd_shed_total{reason=\"busy\"} %d\n", s.shedBusy.Load())
	writeCount(&b, "rbcastd_run_deadline_total", "counter",
		"Scenario executions stopped by the job deadline (partial results).",
		s.deadlineRuns.Load())
	writeCount(&b, "rbcastd_panics_recovered_total", "counter",
		"Recovered panics: a /v1/run, each /v1/batch or /v1/sweep element, or a batch job's own stitching, failed alone instead of killing the daemon.",
		s.panicsRecovered.Load())

	writeCount(&b, "rbcastd_sim_runs_total", "counter",
		"Scenario executions: successful /v1/run and /v1/batch runs plus the simulations each /v1/sweep ran.",
		s.simRuns.Load())
	writeCount(&b, "rbcastd_sim_broadcasts_total", "counter",
		"Local broadcasts transmitted across all executed runs.", s.simBroadcasts.Load())
	writeCount(&b, "rbcastd_sim_deliveries_total", "counter",
		"Per-receiver deliveries across all executed runs.", s.simDeliveries.Load())
	writeCount(&b, "rbcastd_sim_evidence_evals_total", "counter",
		"Commit-rule evidence evaluations across all executed runs.", s.simEvidence.Load())
	writeCount(&b, "rbcastd_sim_commits_total", "counter",
		"First-time decisions across all executed runs.", s.simCommits.Load())

	writeCount(&b, "rbcastd_sweeps_total", "counter",
		"Sweep requests executed.", s.sweepsRun.Load())
	writeCount(&b, "rbcastd_sweep_elements_total", "counter",
		"Sweep elements planned across all sweeps (cached or executed).",
		s.sweepElements.Load())
	writeCount(&b, "rbcastd_sweep_shared_results_total", "counter",
		"Sweep elements resolved by sharing another element's execution.",
		s.sweepSharedResults.Load())
	writeCount(&b, "rbcastd_sweep_node_rounds_total", "counter",
		"Node-rounds actually simulated by the sweep engine.",
		s.sweepNodeRounds.Load())
	writeCount(&b, "rbcastd_sweep_scalar_node_rounds_total", "counter",
		"Node-rounds equivalent scalar execution would have simulated.",
		s.sweepScalarNodeRounds.Load())

	// Per-phase duration summaries from the flight recorder's finished
	// traces (empty until a recorded route runs with -flight-recorder on).
	s.phaseMu.Lock()
	phases := make([]string, 0, len(s.phaseDur))
	for name := range s.phaseDur {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	type phaseRow struct {
		name  string
		count uint64
		sum   float64
	}
	rows := make([]phaseRow, len(phases))
	for i, name := range phases {
		ps := s.phaseDur[name]
		rows[i] = phaseRow{name: name, count: ps.count, sum: time.Duration(ps.sumNanos).Seconds()}
	}
	s.phaseMu.Unlock()
	writeHeader(&b, "rbcastd_phase_seconds", "summary",
		"Request time attributed to execution phases (flight-recorder span names).")
	for _, row := range rows {
		fmt.Fprintf(&b, "rbcastd_phase_seconds_sum{phase=%q} %g\n", row.name, row.sum)
		fmt.Fprintf(&b, "rbcastd_phase_seconds_count{phase=%q} %d\n", row.name, row.count)
	}
	writeCount(&b, "rbcastd_flight_recorder_requests_total", "counter",
		"Request timelines recorded by the flight recorder.", int64(s.rec.Total()))

	// Process-health gauges: without them the exposition says nothing
	// about whether the daemon itself is drowning.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeCount(&b, "rbcastd_goroutines", "gauge",
		"Live goroutines in the daemon process.", int64(runtime.NumGoroutine()))
	writeCount(&b, "rbcastd_heap_alloc_bytes", "gauge",
		"Bytes of allocated heap objects.", int64(ms.HeapAlloc))
	writeSeconds(&b, "rbcastd_gc_pause_seconds_total", "counter",
		"Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)

	writeSeconds(&b, "rbcastd_uptime_seconds", "gauge",
		"Seconds since the server started.", time.Since(s.start).Seconds())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

// writeHeader emits the HELP/TYPE preamble for a metric family.
func writeHeader(b *strings.Builder, name, kind, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// writeCount emits a single-sample family of an integer-valued counter or
// gauge with its preamble. The sample is written as digits: %g would turn
// any count of a million or more into exponent form, and readers of the
// exposition parse integers.
func writeCount(b *strings.Builder, name, kind, help string, v int64) {
	writeHeader(b, name, kind, help)
	fmt.Fprintf(b, "%s %d\n", name, v)
}

// writeSeconds emits a single-sample family measured in seconds with its
// preamble; %g keeps the fraction compact.
func writeSeconds(b *strings.Builder, name, kind, help string, v float64) {
	writeHeader(b, name, kind, help)
	fmt.Fprintf(b, "%s %g\n", name, v)
}
