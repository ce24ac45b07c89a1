package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	rbcast "repro"
	"repro/internal/obs"
	"repro/internal/scache"
)

// Options configure a Server; the zero value serves with defaults.
type Options struct {
	// CacheSize bounds the result cache entry count (≤ 0: 1024).
	CacheSize int
	// Workers caps the worker pool of each batch job and each /v1/sweep
	// (≤ 0: GOMAXPROCS).
	Workers int
	// MaxJobs bounds retained async batch jobs (≤ 0: 4096). When the
	// bound is hit, the oldest finished job is dropped; running jobs are
	// never dropped.
	MaxJobs int
	// QueueDepth bounds batch jobs accepted but not yet finished (≤ 0:
	// 1024). A submission over the bound is shed with 429 and a
	// Retry-After header instead of queueing unboundedly.
	QueueDepth int
	// MaxInflight bounds concurrently *executing* jobs — sync /v1/run
	// executions plus running batch jobs (≤ 0: unbounded). At the bound,
	// sync runs are shed with 429 + Retry-After (a cache hit is still
	// served); accepted batch jobs wait for a slot.
	MaxInflight int
	// JobTimeout bounds each execution's wall clock (≤ 0: none). A sync
	// run over it fails with 504. In /v1/batch and /v1/sweep it bounds
	// each execution unit — one shared execution, or a whole crash-round
	// fork family (rbcast.BatchOptions.JobTimeout): every element of a
	// unit over it comes back partial, while other units complete.
	JobTimeout time.Duration
	// Runner executes one scenario for /v1/run (nil: rbcast.RunContext).
	// Tests inject counting or blocking runners. The context carries the
	// server's job deadline; runners should stop when it is done.
	Runner func(context.Context, rbcast.Config, rbcast.FaultPlan) (rbcast.Result, error)
	// SweepRunner executes the cache misses of a batch job or a sweep
	// (nil: rbcast.RunSweepJobs). The BatchOptions carry the server's
	// JobTimeout. Tests inject blocking or failing runners.
	SweepRunner func([]rbcast.Job, rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats)
	// Logger receives one structured line per request (nil: no request
	// logging). Metrics and request ids are recorded either way.
	Logger *slog.Logger
	// FlightRecorder retains the last N request timelines for
	// GET /debug/requests and feeds the per-phase /metrics summaries
	// (≤ 0: disabled). When disabled the span stack is disarmed — the
	// request path performs no tracing work and no extra allocations.
	FlightRecorder int
	// SlowRequest logs one WARN line (with the per-phase span summary
	// when the flight recorder is armed) for any request at or over this
	// duration (≤ 0: disabled). Requires Logger.
	SlowRequest time.Duration
}

// Server is the rbcastd HTTP handler plus its execution state. Construct
// with New; it is safe for concurrent use.
type Server struct {
	opts  Options
	cache *scache.Cache[*rbcast.PackedResult]
	mux   *http.ServeMux
	start time.Time

	// requestsByPath maps each registered route to its request counter;
	// histByPath maps it to its duration histogram.
	requestsByPath map[string]*atomic.Uint64
	histByPath     map[string]*routeHist
	// reqSeq sequences request ids.
	reqSeq atomic.Uint64

	// rec is the flight recorder (nil when Options.FlightRecorder ≤ 0 —
	// the span stack is then disarmed end to end). phaseMu/phaseDur
	// aggregate finished traces' spans into the rbcastd_phase_seconds
	// summaries.
	rec      *obs.Recorder
	phaseMu  sync.Mutex
	phaseDur map[string]*phaseStats

	// inflightRuns counts scenario executions currently on a CPU
	// (sync runs and batch pool occupancy alike).
	inflightRuns atomic.Int64
	// queueDepth counts batch jobs accepted but not yet finished.
	queueDepth atomic.Int64
	// runSlots is the MaxInflight semaphore (nil = unbounded): sync runs
	// try-acquire and shed on failure, batch jobs block for a slot.
	runSlots chan struct{}
	// shedQueueFull and shedBusy count requests shed with 429 because the
	// batch queue was full / every execution slot was taken.
	shedQueueFull, shedBusy atomic.Int64
	// deadlineRuns counts executions stopped by the job deadline, once
	// per execution however many elements share it; panicsRecovered
	// counts scenario panics isolated to their request or element.
	deadlineRuns, panicsRecovered atomic.Int64

	// Aggregated simulation totals across every executed (non-cached)
	// run — the internal/metrics counters surfaced server-wide.
	simRuns, simBroadcasts, simDeliveries, simEvidence, simCommits atomic.Int64

	// Sweep-engine totals: sweeps served, elements planned, results shared
	// without a fresh simulation, and actual vs scalar-equivalent simulated
	// node-rounds (their ratio is the server-wide incremental speedup).
	sweepsRun, sweepElements, sweepSharedResults atomic.Int64
	sweepNodeRounds, sweepScalarNodeRounds       atomic.Int64

	mu       sync.Mutex
	draining bool
	nextID   uint64
	jobs     map[string]*batchJob
	order    []string // job ids in creation order, oldest first
	wg       sync.WaitGroup
}

// New constructs a Server and registers its routes.
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 1024
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.Runner == nil {
		opts.Runner = rbcast.RunContext
	}
	if opts.SweepRunner == nil {
		opts.SweepRunner = rbcast.RunSweepJobs
	}
	s := &Server{
		opts:           opts,
		cache:          scache.New[*rbcast.PackedResult](opts.CacheSize),
		mux:            http.NewServeMux(),
		start:          time.Now(),
		requestsByPath: make(map[string]*atomic.Uint64),
		histByPath:     make(map[string]*routeHist),
		rec:            obs.NewRecorder(opts.FlightRecorder),
		phaseDur:       make(map[string]*phaseStats),
		jobs:           make(map[string]*batchJob),
	}
	if opts.MaxInflight > 0 {
		s.runSlots = make(chan struct{}, opts.MaxInflight)
	}
	// record marks routes whose timelines enter the flight recorder.
	// Scrape endpoints and long-lived event streams stay out: they would
	// flood the ring with traffic nobody debugs, burying the requests the
	// recorder exists to explain. Every route is still counted and
	// histogrammed.
	routes := []struct {
		pattern string
		path    string
		handler http.HandlerFunc
		record  bool
	}{
		{"POST /v1/run", "/v1/run", s.handleRun, true},
		{"POST /v1/batch", "/v1/batch", s.handleBatch, true},
		{"POST /v1/sweep", "/v1/sweep", s.handleSweep, true},
		{"GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJob, true},
		{"GET /v1/jobs/{id}/trace", "/v1/jobs/{id}/trace", s.handleJobTrace, true},
		{"GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", s.handleJobEvents, false},
		{"GET /healthz", "/healthz", s.handleHealthz, false},
		{"GET /metrics", "/metrics", s.handleMetrics, false},
		{"GET /debug/requests", "/debug/requests", s.handleDebugRequests, false},
	}
	for _, r := range routes {
		counter := &atomic.Uint64{}
		hist := &routeHist{}
		s.requestsByPath[r.path] = counter
		s.histByPath[r.path] = hist
		s.mux.HandleFunc(r.pattern, s.instrument(r.path, counter, hist, r.record, r.handler))
	}
	return s
}

// ServeHTTP dispatches to the registered routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// RunRequest is the /v1/run payload and the element type of /v1/batch.
type RunRequest struct {
	Config rbcast.Config    `json:"config"`
	Plan   rbcast.FaultPlan `json:"plan"`
}

// RunResponse is the /v1/run response body. The server renders it from
// the packed cache entry (render.go); the bytes equal json.Marshal of this
// type.
type RunResponse struct {
	Fingerprint string        `json:"fingerprint"`
	Result      rbcast.Result `json:"result"`
}

// errorResponse is every error body: {"error": "..."}.
type errorResponse struct {
	Error string `json:"error"`
}

// errBusy is executeOne's shed signal: every execution slot is taken and
// the caller should retry after backing off. It is never cached.
var errBusy = errors.New("server is at max in-flight executions, retry later")

// retryAfterSeconds is the Retry-After hint sent with every 429. Scenario
// runs are short (milliseconds to low seconds), so one second is a
// conservative back-off that keeps well-behaved clients from hammering a
// saturated daemon.
const retryAfterSeconds = 1

// writeShed rejects a request with 429 and a Retry-After header — explicit
// backpressure instead of unbounded queueing.
func writeShed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
}

// handleRun executes one scenario synchronously through the cache.
// Concurrent identical requests single-flight onto one execution; the
// X-Rbcast-Cache header reports hit (served without executing) or miss.
// Failure modes map to statuses: invalid scenario 400, all execution slots
// taken 429 (Retry-After), job deadline exceeded 504, scenario panic 500.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tr, root := obs.SpanFromContext(r.Context())
	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job := rbcast.Job{Config: req.Config, Plan: req.Plan}
	fp := job.Fingerprint()
	// The cache span's identity is only known once the lookup resolves:
	// a resident hit, a single-flight wait on another request's
	// execution, or a miss this request executes (with slot-wait and
	// engine child spans from executeOne).
	cacheSp := tr.Start(root, "cache")
	res, err, outcome := s.cache.DoOutcome(fp, func() (*rbcast.PackedResult, error) {
		res, err := s.executeOne(tr, cacheSp, req.Config, req.Plan)
		if err != nil {
			return nil, err
		}
		packed := res.Pack()
		return &packed, nil
	})
	switch outcome {
	case scache.OutcomeHit:
		tr.SetName(cacheSp, "cache_hit")
	case scache.OutcomeJoined:
		tr.SetName(cacheSp, "singleflight_wait")
	default:
		tr.SetName(cacheSp, "cache_miss")
	}
	tr.Annotate(cacheSp, "fingerprint", fp)
	tr.End(cacheSp)
	cached := outcome != scache.OutcomeMiss
	if err != nil {
		var pe *rbcast.PanicError
		switch {
		case errors.Is(err, errBusy):
			s.shedBusy.Add(1)
			writeShed(w, err)
		case errors.Is(err, rbcast.ErrDeadline):
			s.deadlineRuns.Add(1)
			writeError(w, http.StatusGatewayTimeout, err)
		case errors.As(err, &pe):
			writeError(w, http.StatusInternalServerError, err)
		default:
			// Everything else is a scenario rejection (invalid
			// config/plan), not a server fault.
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	if cached {
		w.Header().Set("X-Rbcast-Cache", "hit")
	} else {
		w.Header().Set("X-Rbcast-Cache", "miss")
	}
	encSp := tr.Start(root, "encode")
	writeRendered(w, func(dst []byte) ([]byte, error) { return appendRunResponse(dst, fp, res) })
	tr.End(encSp)
}

// executeOne runs a single scenario, tracking in-flight occupancy and
// aggregating its engine metrics. It sheds with errBusy when every
// execution slot is taken, bounds the run with the server's job deadline,
// and converts a panicking scenario into an error instead of letting it
// kill the daemon. The deadline context is detached from the request so a
// disconnecting client cannot cancel an execution that coalesced
// single-flight waiters. tr/parent carry the executing request's trace
// (nil when disarmed, or when this execution was reached through a
// coalesced waiter whose own trace records only the wait).
func (s *Server) executeOne(tr *obs.Trace, parent obs.SpanID, cfg rbcast.Config, plan rbcast.FaultPlan) (res rbcast.Result, err error) {
	if s.runSlots != nil {
		slotSp := tr.Start(parent, "slot_wait")
		select {
		case s.runSlots <- struct{}{}:
			tr.End(slotSp)
			defer func() { <-s.runSlots }()
		default:
			tr.End(slotSp)
			return rbcast.Result{}, errBusy
		}
	}
	s.inflightRuns.Add(1)
	defer s.inflightRuns.Add(-1)
	ctx := context.Background()
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			err = &rbcast.PanicError{Index: -1, Value: r, Stack: debug.Stack()}
			if s.opts.Logger != nil {
				s.opts.Logger.Error("scenario panicked", "panic", r, "stack", string(debug.Stack()))
			}
		}
	}()
	engSp := tr.Start(parent, "engine")
	res, err = s.opts.Runner(obs.ContextWith(ctx, tr, engSp), cfg, plan)
	tr.AnnotateInt(engSp, "rounds", int64(res.Rounds))
	tr.End(engSp)
	if err == nil {
		s.observe(res)
	}
	return res, err
}

// observe folds one run's engine counters into the server-wide totals.
func (s *Server) observe(res rbcast.Result) {
	s.simRuns.Add(1)
	s.simBroadcasts.Add(int64(res.Broadcasts))
	s.simDeliveries.Add(int64(res.Deliveries))
	s.simEvidence.Add(int64(res.Metrics.EvidenceEvals))
	s.simCommits.Add(int64(res.Metrics.Commits))
}

// Drain stops accepting new batch jobs and waits for the queued ones to
// finish, or for ctx to expire. Call it after http.Server.Shutdown has
// drained the in-flight handlers; together they implement rbcastd's
// graceful shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain aborted with %d batch jobs still queued: %w",
			s.queueDepth.Load(), ctx.Err())
	}
}

// decodeJSON strictly decodes a request body: unknown fields and trailing
// garbage are errors, so client typos surface as 400s instead of silently
// running a default scenario.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid request body: trailing data after JSON value")
	}
	return nil
}

// writeJSON writes a JSON response body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
