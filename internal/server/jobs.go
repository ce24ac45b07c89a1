package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	rbcast "repro"
	"repro/internal/obs"
)

// BatchRequest is the /v1/batch payload.
type BatchRequest struct {
	Jobs []RunRequest `json:"jobs"`
	// Workers optionally caps this job's worker pool below the server
	// default (≤ 0: server default).
	Workers int `json:"workers,omitempty"`
}

// BatchResponse acknowledges an accepted batch job.
type BatchResponse struct {
	ID        string `json:"id"`
	Jobs      int    `json:"jobs"`
	StatusURL string `json:"status_url"`
}

// JobStatus is the /v1/jobs/{id} response body. The server renders it from
// the job's packed results (render.go); the bytes equal json.Marshal of
// this type.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running" or "done"
	Jobs  int    `json:"jobs"`
	// Results is populated once State is "done", in job order.
	Results []JobResult `json:"results,omitempty"`
}

// JobResult is one batch element's outcome.
type JobResult struct {
	Fingerprint string         `json:"fingerprint"`
	Result      *rbcast.Result `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
	// Cached reports the result came from the result cache (or from a
	// duplicate fingerprint earlier in the same batch) rather than a
	// fresh execution.
	Cached bool `json:"cached,omitempty"`
	// Partial reports the element was stopped by the server's job
	// deadline: Error carries the deadline error and Result holds the
	// partial state at the round where the run was cut (never cached).
	Partial bool `json:"partial,omitempty"`
}

// ProgressEvent is one GET /v1/jobs/{id}/events NDJSON line: a cumulative
// snapshot of a batch job's execution. Snapshots are monotone — each
// field only grows — and the stream ends with exactly one terminal event
// (State "done", JobsDone == JobsTotal).
type ProgressEvent struct {
	// State is "running" until the job finishes, then "done".
	State string `json:"state"`
	// JobsDone counts batch elements resolved so far (cache hits,
	// executions, failures and within-batch duplicates alike); JobsTotal
	// is the batch size.
	JobsDone  int `json:"jobs_done"`
	JobsTotal int `json:"jobs_total"`
	// NodeRounds is the simulated work performed so far: Σ rounds ×
	// network size over this job's fresh executions.
	NodeRounds int64 `json:"node_rounds"`
	// DedupHits counts elements resolved without a fresh execution of
	// their own: result-cache hits, within-batch duplicate fingerprints,
	// and elements that shared another element's execution in the sweep
	// engine (rbcast.ProgressUpdate.SharedResults).
	DedupHits int `json:"dedup_hits"`
	// Errors counts elements that finished with an error (terminal event
	// only; partial deadline results are included).
	Errors int `json:"errors"`
}

// batchJob is one asynchronous batch execution.
type batchJob struct {
	id      string
	n       int
	created time.Time

	mu      sync.Mutex
	done    bool
	results []element
	// progress is the latest cumulative snapshot; changed is closed and
	// replaced on every advance, waking /v1/jobs/{id}/events streams.
	progress ProgressEvent
	changed  chan struct{}
}

// newBatchJob opens a running job with a live progress snapshot.
func newBatchJob(id string, n int) *batchJob {
	return &batchJob{
		id:       id,
		n:        n,
		created:  time.Now(),
		progress: ProgressEvent{State: "running", JobsTotal: n},
		changed:  make(chan struct{}),
	}
}

// update advances the live progress snapshot and wakes watchers. Fields
// only move forward — progress callbacks race with the scan-time seed, so
// monotonicity is enforced here rather than trusted from callers. A
// finished job ignores updates.
func (j *batchJob) update(done int, nodeRounds int64, dedup int) {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return
	}
	advanced := false
	if done > j.progress.JobsDone {
		j.progress.JobsDone = done
		advanced = true
	}
	if nodeRounds > j.progress.NodeRounds {
		j.progress.NodeRounds = nodeRounds
		advanced = true
	}
	if dedup > j.progress.DedupHits {
		j.progress.DedupHits = dedup
		advanced = true
	}
	if advanced {
		close(j.changed)
		j.changed = make(chan struct{})
	}
	j.mu.Unlock()
}

// finish publishes the results and the terminal progress event. The first
// finish wins (the panic path and the normal path cannot both land).
func (j *batchJob) finish(results []element) {
	j.mu.Lock()
	if !j.done {
		j.results = results
		j.done = true
		j.progress.State = "done"
		j.progress.JobsDone = j.n
		errs := 0
		for i := range results {
			if results[i].err != "" {
				errs++
			}
		}
		j.progress.Errors = errs
		close(j.changed)
		j.changed = make(chan struct{})
	}
	j.mu.Unlock()
}

// snapshot returns the current progress event, the channel that closes on
// the next advance, and whether the job is terminal.
func (j *batchJob) snapshot() (ProgressEvent, chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress, j.changed, j.done
}

// handleBatch accepts a job list and executes it asynchronously through
// resolveJobs — cache hits and within-batch duplicates resolve without
// simulating, the misses run on rbcast.RunSweepJobs. The response carries
// the id to poll.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch must contain at least one job"))
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Admission control: a full queue sheds with 429 + Retry-After — the
	// locally bounded failure discipline applied to load. The depth check
	// and increment share s.mu so concurrent submissions cannot overshoot
	// the bound.
	if int(s.queueDepth.Load()) >= s.opts.QueueDepth {
		s.mu.Unlock()
		s.shedQueueFull.Add(1)
		writeShed(w, fmt.Errorf("batch queue is full (%d jobs), retry later", s.opts.QueueDepth))
		return
	}
	s.queueDepth.Add(1)
	s.nextID++
	job := newBatchJob(fmt.Sprintf("job-%d", s.nextID), len(req.Jobs))
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.evictJobsLocked()
	s.wg.Add(1)
	s.mu.Unlock()

	// Async jobs get their own timeline in the flight recorder, keyed by
	// job id: the HTTP accept above records only decode + admission, while
	// the job trace attributes the execution (queue wait, slot wait,
	// engine). jtr is nil when the recorder is disarmed.
	var jtr *obs.Trace
	var queueSp obs.SpanID
	if s.rec.Enabled() {
		jtr = obs.NewTrace("batch-job", job.id)
		queueSp = jtr.Start(obs.Root, "queue_wait")
		jtr.AnnotateInt(obs.Root, "jobs", int64(job.n))
	}
	go func() {
		defer s.wg.Done()
		defer s.queueDepth.Add(-1)
		// Panic isolation for the stitching path itself:
		// rbcast.RunSweepJobs already confines per-scenario panics to
		// their elements, so this recover only fires on a server bug — the
		// job fails, the daemon and its sibling jobs do not.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			s.panicsRecovered.Add(1)
			if s.opts.Logger != nil {
				s.opts.Logger.Error("batch job panicked", "job", job.id, "panic", r)
			}
			failed := make([]element, job.n)
			for i := range failed {
				failed[i].err = fmt.Sprintf("batch execution panicked: %v", r)
			}
			job.finish(failed)
			jtr.Finish(http.StatusInternalServerError)
			s.rec.Record(jtr)
			s.foldPhases(jtr)
		}()
		jtr.End(queueSp)
		// An accepted job waits for an execution slot rather than shedding:
		// backpressure was applied at admission, MaxInflight paces the CPU.
		if s.runSlots != nil {
			slotSp := jtr.Start(obs.Root, "slot_wait")
			s.runSlots <- struct{}{}
			jtr.End(slotSp)
			defer func() { <-s.runSlots }()
		}
		jobs := make([]rbcast.Job, len(req.Jobs))
		for i, rr := range req.Jobs {
			jobs[i] = rbcast.Job(rr)
		}
		results, _ := s.resolveJobs(jtr, obs.Root, jobs, req.Workers, job)
		job.finish(results)
		jtr.Finish(http.StatusOK)
		s.rec.Record(jtr)
		s.foldPhases(jtr)
	}()

	writeJSON(w, http.StatusAccepted, BatchResponse{
		ID:        job.id,
		Jobs:      job.n,
		StatusURL: "/v1/jobs/" + job.id,
	})
}

// resolveJobs is the one way /v1/batch and /v1/sweep execute a job list.
// It fingerprints each job and serves cache hits, resolves a repeated
// fingerprint from its first occurrence (marked cached), runs the misses
// through Options.SweepRunner under the request's worker cap, and settles
// every executed element. tr (nil when the flight recorder is disarmed)
// receives the cache-scan and engine spans under parent. job is the
// /v1/batch job, nil for a sweep: it receives live progress, and each of
// its fresh successes feeds the per-run engine totals, which a sweep
// feeds from the returned stats instead (API.md, "/metrics").
func (s *Server) resolveJobs(tr *obs.Trace, parent obs.SpanID, jobs []rbcast.Job, workers int, job *batchJob) ([]element, rbcast.SweepStats) {
	results := make([]element, len(jobs))
	firstIndex := make(map[string]int) // fingerprint → first miss index
	var missJobs []rbcast.Job
	var missIndex []int
	scanSp := tr.Start(parent, "cache_scan")
	cached := 0
	for i, rj := range jobs {
		fp := rj.Fingerprint()
		results[i].fp = fp
		if res, ok := s.cache.Get(fp); ok {
			results[i].res = res
			results[i].cached = true
			cached++
			continue
		}
		if _, dup := firstIndex[fp]; dup {
			results[i].cached = true // resolved from the first occurrence below
			continue
		}
		firstIndex[fp] = i
		missJobs = append(missJobs, rj)
		missIndex = append(missIndex, i)
	}
	dups := len(jobs) - cached - len(missJobs)
	tr.AnnotateInt(scanSp, "hits", int64(cached))
	tr.AnnotateInt(scanSp, "dups", int64(dups))
	tr.AnnotateInt(scanSp, "misses", int64(len(missJobs)))
	tr.End(scanSp)

	opts := rbcast.BatchOptions{Workers: s.opts.Workers, JobTimeout: s.opts.JobTimeout}
	if workers > 0 && (opts.Workers <= 0 || workers < opts.Workers) {
		opts.Workers = workers
	}
	if job != nil {
		// Seed the progress stream: everything dedup-resolved is already
		// done (duplicates stitch from their first occurrence, which the
		// engine completion below accounts for).
		job.update(cached, 0, cached+dups)
		opts.Progress = func(up rbcast.ProgressUpdate) {
			job.update(cached+up.Done, up.NodeRounds, cached+dups+up.SharedResults)
		}
	}
	var stats rbcast.SweepStats
	if len(missJobs) > 0 {
		// The engine span parents the executor's own spans (sweep_plan,
		// one job span per execution unit, fork), carried in through
		// BatchOptions.Context.
		engSp := tr.Start(parent, "engine")
		opts.Context = obs.ContextWith(context.Background(), tr, engSp)
		s.inflightRuns.Add(int64(len(missJobs)))
		var batch []rbcast.BatchResult
		batch, stats = s.opts.SweepRunner(missJobs, opts)
		s.inflightRuns.Add(-int64(len(missJobs)))
		tr.End(engSp)
		// Elements that shared an execution share one packed result, so
		// counting each packed result once counts each execution once: a
		// deadline stop on either route, a completed run only for a batch
		// (a sweep's caller counts its simulations from the stats).
		packed := rbcast.PackBatch(batch)
		counted := make(map[*rbcast.PackedResult]bool)
		for k, br := range batch {
			ok := s.settle(&results[missIndex[k]], br, packed[k])
			if packed[k] == nil || counted[packed[k]] {
				continue
			}
			counted[packed[k]] = true
			switch {
			case errors.Is(br.Err, rbcast.ErrDeadline):
				s.deadlineRuns.Add(1)
			case ok && job != nil:
				s.observe(br.Result)
			}
		}
	}

	// Resolve within-request duplicates from their first occurrence.
	for i := range results {
		if results[i].res != nil || results[i].err != "" {
			continue
		}
		first := results[firstIndex[results[i].fp]]
		results[i].res = first.res
		results[i].err = first.err
		results[i].partial = first.partial
	}
	return results, stats
}

// settle fills an executed batch or sweep element from its result and
// its packed form (rbcast.PackBatch). A success is cached. An element cut
// by the job deadline surfaces its partial state alongside the error,
// never cached; a panicked element is counted as a recovered panic; any
// other failure keeps only its error. It reports success.
func (s *Server) settle(el *element, br rbcast.BatchResult, packed *rbcast.PackedResult) bool {
	if br.Err != nil {
		el.err = br.Err.Error()
		var pe *rbcast.PanicError
		switch {
		case errors.Is(br.Err, rbcast.ErrDeadline):
			el.res, el.partial = packed, true
		case errors.As(br.Err, &pe):
			s.panicsRecovered.Add(1)
		}
		return false
	}
	el.res = packed
	s.cache.Put(el.fp, el.res)
	return true
}

// handleJob reports a batch job's state and, once done, its results.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	state := "running"
	job.mu.Lock()
	results := job.results
	if job.done {
		state = "done"
	}
	job.mu.Unlock()
	writeRendered(w, func(dst []byte) ([]byte, error) { return appendJobStatus(dst, job, state, results) })
}

// handleJobTrace streams one batch element's execution trace as JSON
// Lines (application/x-ndjson), exactly as rbcast.EncodeTrace renders it —
// the bytes round-trip through rbcast.DecodeTrace and repeated GETs are
// byte-identical. The element is selected with ?job=N (default 0, batch
// order). Traces exist only for elements whose Config.Trace was set.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	job.mu.Lock()
	done, results := job.done, job.results
	job.mu.Unlock()
	if !done {
		writeError(w, http.StatusConflict, fmt.Errorf("job %q is still running", id))
		return
	}
	idx := 0
	if q := r.URL.Query().Get("job"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid job index %q", q))
			return
		}
		idx = n
	}
	if idx < 0 || idx >= len(results) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("job index %d out of range [0,%d)", idx, len(results)))
		return
	}
	el := results[idx]
	var trace []rbcast.TraceEvent
	if el.res != nil {
		trace = el.res.Result().Trace
	}
	switch {
	case el.err != "":
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job element %d failed: %s", idx, el.err))
		return
	case len(trace) == 0:
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job element %d recorded no trace — set config.trace", idx))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rbcast.EncodeTrace(w, trace)
}

// eventsHeartbeat bounds how long an unchanged /v1/jobs/{id}/events
// stream stays silent: the current snapshot is re-sent so idle proxies
// and client read deadlines see a live connection.
const eventsHeartbeat = 15 * time.Second

// handleJobEvents streams a batch job's progress as NDJSON
// (application/x-ndjson): the current cumulative snapshot immediately,
// one line per advance after that, and a final terminal line (State
// "done") before the stream closes. Unchanged snapshots are re-sent every
// eventsHeartbeat as keep-alives; watchers dedup by monotonicity. A job
// that is already done yields exactly one terminal line. Unknown ids 404.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	hb := time.NewTicker(eventsHeartbeat)
	defer hb.Stop()
	var last ProgressEvent
	sent := false
	for {
		ev, changed, done := job.snapshot()
		if !sent || ev != last {
			if enc.Encode(ev) != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
			last, sent = ev, true
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-hb.C:
			sent = false // force a keep-alive re-send
		case <-r.Context().Done():
			return
		}
	}
}

// evictJobsLocked drops the oldest *finished* jobs beyond MaxJobs so a
// long-running daemon's job table stays bounded. Running jobs are always
// retained. Callers hold s.mu.
func (s *Server) evictJobsLocked() {
	for len(s.jobs) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.order {
			job := s.jobs[id]
			if job == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			job.mu.Lock()
			done := job.done
			job.mu.Unlock()
			if done {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still running
		}
	}
}
