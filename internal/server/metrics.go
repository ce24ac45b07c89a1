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
	writeGauge(&b, "rbcastd_cache_hits_total", "counter",
		"Result-cache hits, including single-flight coalesced waiters.", float64(cs.Hits))
	writeGauge(&b, "rbcastd_cache_misses_total", "counter",
		"Result-cache misses that triggered a simulation execution.", float64(cs.Misses))
	writeGauge(&b, "rbcastd_cache_evictions_total", "counter",
		"Result-cache LRU evictions.", float64(cs.Evictions))
	writeGauge(&b, "rbcastd_cache_entries", "gauge",
		"Resident result-cache entries.", float64(cs.Entries))

	writeGauge(&b, "rbcastd_inflight_runs", "gauge",
		"Scenario executions currently running (sync and batch).", float64(s.inflightRuns.Load()))
	writeGauge(&b, "rbcastd_jobs_queue_depth", "gauge",
		"Batch jobs accepted but not yet finished.", float64(s.queueDepth.Load()))
	writeGauge(&b, "rbcastd_jobs_queue_limit", "gauge",
		"Batch queue admission bound (submissions over it are shed with 429).",
		float64(s.opts.QueueDepth))
	writeGauge(&b, "rbcastd_inflight_limit", "gauge",
		"Concurrent execution bound (0 = unbounded).", float64(s.opts.MaxInflight))

	writeHeader(&b, "rbcastd_shed_total", "counter",
		"Requests shed with 429 + Retry-After, by reason.")
	fmt.Fprintf(&b, "rbcastd_shed_total{reason=\"queue_full\"} %d\n", s.shedQueueFull.Load())
	fmt.Fprintf(&b, "rbcastd_shed_total{reason=\"busy\"} %d\n", s.shedBusy.Load())
	writeGauge(&b, "rbcastd_run_deadline_total", "counter",
		"Scenario executions stopped by the job deadline (partial results).",
		float64(s.deadlineRuns.Load()))
	writeGauge(&b, "rbcastd_panics_recovered_total", "counter",
		"Panicking executions isolated to their job instead of killing the daemon.",
		float64(s.panicsRecovered.Load()))

	writeGauge(&b, "rbcastd_sim_runs_total", "counter",
		"Scenario executions: successful /v1/run and /v1/batch runs plus the simulations each /v1/sweep ran.",
		float64(s.simRuns.Load()))
	writeGauge(&b, "rbcastd_sim_broadcasts_total", "counter",
		"Local broadcasts transmitted across all executed runs.", float64(s.simBroadcasts.Load()))
	writeGauge(&b, "rbcastd_sim_deliveries_total", "counter",
		"Per-receiver deliveries across all executed runs.", float64(s.simDeliveries.Load()))
	writeGauge(&b, "rbcastd_sim_evidence_evals_total", "counter",
		"Commit-rule evidence evaluations across all executed runs.", float64(s.simEvidence.Load()))
	writeGauge(&b, "rbcastd_sim_commits_total", "counter",
		"First-time decisions across all executed runs.", float64(s.simCommits.Load()))

	writeGauge(&b, "rbcastd_sweeps_total", "counter",
		"Sweep requests executed.", float64(s.sweepsRun.Load()))
	writeGauge(&b, "rbcastd_sweep_elements_total", "counter",
		"Sweep elements planned across all sweeps (cached or executed).",
		float64(s.sweepElements.Load()))
	writeGauge(&b, "rbcastd_sweep_shared_results_total", "counter",
		"Sweep elements resolved by sharing another element's execution.",
		float64(s.sweepSharedResults.Load()))
	writeGauge(&b, "rbcastd_sweep_node_rounds_total", "counter",
		"Node-rounds actually simulated by the sweep engine.",
		float64(s.sweepNodeRounds.Load()))
	writeGauge(&b, "rbcastd_sweep_scalar_node_rounds_total", "counter",
		"Node-rounds equivalent scalar execution would have simulated.",
		float64(s.sweepScalarNodeRounds.Load()))

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
	writeGauge(&b, "rbcastd_flight_recorder_requests_total", "counter",
		"Request timelines recorded by the flight recorder.", float64(s.rec.Total()))

	// Process-health gauges: without them the exposition says nothing
	// about whether the daemon itself is drowning.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(&b, "rbcastd_goroutines", "gauge",
		"Live goroutines in the daemon process.", float64(runtime.NumGoroutine()))
	writeGauge(&b, "rbcastd_heap_alloc_bytes", "gauge",
		"Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	writeGauge(&b, "rbcastd_gc_pause_seconds_total", "counter",
		"Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)

	writeGauge(&b, "rbcastd_uptime_seconds", "gauge",
		"Seconds since the server started.", time.Since(s.start).Seconds())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

// writeHeader emits the HELP/TYPE preamble for a metric family.
func writeHeader(b *strings.Builder, name, kind, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// writeGauge emits a single-sample family with its preamble. %g keeps
// integers integral and floats compact, matching Prometheus conventions.
func writeGauge(b *strings.Builder, name, kind, help string, v float64) {
	writeHeader(b, name, kind, help)
	fmt.Fprintf(b, "%s %g\n", name, v)
}
