// Package server implements rbcastd's HTTP/JSON serving layer: scenario
// execution behind a fingerprint-keyed LRU result cache with single-flight
// deduplication, asynchronous batch jobs and parameter sweeps on the
// rbcast.RunSweepJobs executor, and Prometheus-text observability.
//
// Endpoints:
//
//	POST /v1/run              execute one scenario synchronously (cached)
//	POST /v1/batch            submit a job list; returns a job id immediately
//	POST /v1/sweep            plan + execute a parameter grid (NDJSON, written in batches)
//	GET  /v1/jobs/{id}        poll a batch job's status and results
//	GET  /v1/jobs/{id}/trace  stream a traced element's event log (NDJSON)
//	GET  /v1/jobs/{id}/events stream a batch job's live progress (NDJSON)
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text-format counters and gauges
//	GET  /debug/requests      flight-recorder request timelines
//
// API.md at the repository root is the full route reference.
//
// Identical scenarios — same canonical fingerprint, see
// rbcast.Job.Fingerprint — are executed once and served from the cache
// thereafter; concurrent identical /v1/run requests coalesce onto a single
// execution and receive byte-identical bodies. The cache holds
// rbcast.PackedResult values, and every body that carries a Result is
// rendered from one without reflection (render.go), byte-identical to
// encoding/json's rendering of the exported wire types.
package server
