// Package client is the Go client for rbcastd, the scenario-serving
// daemon. It speaks the daemon's HTTP/JSON contract (POST /v1/run,
// POST /v1/batch, POST /v1/sweep, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/events, GET /healthz, GET /metrics,
// GET /debug/requests) and implements the client half of the serving
// path's backpressure protocol: requests the daemon sheds with 429 (or
// 503) are retried with jittered exponential backoff, honoring the
// Retry-After hint when the daemon sends one, under the caller's context
// deadline.
//
// Almost every rbcastd request is safe to retry: scenario runs are
// deterministic pure functions of their fingerprint, and a shed batch
// submission was never accepted. The one exception is a batch submission
// that fails in transit: each accepted POST /v1/batch creates a new job,
// so a transport error after the request may have reached the daemon is
// NOT retried — only failures that prove non-receipt (the dial itself
// failed) are. Shed submissions (429/503) remain retryable, because the
// daemon answering "not accepted" is exactly the confirmation needed.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	rbcast "repro"
)

// Options configure a Client. The zero value is usable: a 30-second
// per-attempt HTTP timeout, 4 retries, backoff from 100ms to 2s.
type Options struct {
	// HTTPClient issues the requests (nil: a client with a 30s timeout).
	HTTPClient *http.Client
	// MaxRetries is the number of re-attempts after the first try for
	// retryable failures — 429, 503, transport errors (0: 4; negative:
	// never retry).
	MaxRetries int
	// BaseBackoff is the first retry's backoff ceiling; each further
	// attempt doubles it (0: 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0: 2s). A server
	// Retry-After hint overrides the computed backoff but is still capped
	// by MaxBackoff, so a misbehaving server cannot park the client.
	MaxBackoff time.Duration
}

// Client is an rbcastd HTTP client. It is safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration

	// sleep and jitter are test seams: sleep waits out a backoff under
	// the context, jitter draws from [0,1).
	sleep  func(context.Context, time.Duration) error
	jitter func() float64
}

// New builds a client for the daemon at baseURL (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	maxRetries := opts.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = 4
	case maxRetries < 0:
		maxRetries = 0
	}
	base := opts.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := opts.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	return &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          hc,
		maxRetries:  maxRetries,
		baseBackoff: base,
		maxBackoff:  maxB,
		sleep:       sleepCtx,
		jitter:      rand.Float64,
	}
}

// StatusError is a non-2xx response from the daemon.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the daemon's error body (the "error" field when the body
	// is the uniform JSON error shape, the raw body otherwise).
	Message string
	// RetryAfter is the daemon's Retry-After hint (0 when absent).
	RetryAfter time.Duration
	// RequestID is the daemon's X-Request-Id for the failed request ("",
	// when absent). It keys the daemon's request log and flight recorder
	// (GET /debug/requests), so a client-side failure greps straight to
	// its server-side timeline.
	RequestID string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("rbcastd: %d %s: %s (request %s)",
			e.Code, http.StatusText(e.Code), e.Message, e.RequestID)
	}
	return fmt.Sprintf("rbcastd: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// Temporary reports whether the failure is worth retrying: the daemon shed
// the request (429) or is draining (503).
func (e *StatusError) Temporary() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// RunResult is a completed synchronous run.
type RunResult struct {
	Fingerprint string        `json:"fingerprint"`
	Result      rbcast.Result `json:"result"`
	// Cached reports the daemon served the run from its result cache.
	Cached bool `json:"-"`
}

// BatchAck acknowledges an accepted batch submission.
type BatchAck struct {
	ID        string `json:"id"`
	Jobs      int    `json:"jobs"`
	StatusURL string `json:"status_url"`
}

// JobStatus mirrors GET /v1/jobs/{id}.
type JobStatus struct {
	ID      string      `json:"id"`
	State   string      `json:"state"` // "running" or "done"
	Jobs    int         `json:"jobs"`
	Results []JobResult `json:"results,omitempty"`
}

// Done reports whether the batch finished.
func (s JobStatus) Done() bool { return s.State == "done" }

// JobResult is one batch element's outcome.
type JobResult struct {
	Fingerprint string         `json:"fingerprint"`
	Result      *rbcast.Result `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
	Cached      bool           `json:"cached,omitempty"`
	// Partial marks an element the daemon's job deadline cut short:
	// Error carries the deadline error, Result the partial state.
	Partial bool `json:"partial,omitempty"`
}

// batchRequest is the POST /v1/batch payload.
type batchRequest struct {
	Jobs    []rbcast.Job `json:"jobs"`
	Workers int          `json:"workers,omitempty"`
}

// sweepRequest is the POST /v1/sweep payload.
type sweepRequest struct {
	Base    rbcast.Job       `json:"base"`
	Axes    rbcast.SweepAxes `json:"axes"`
	Workers int              `json:"workers,omitempty"`
}

// SweepResult is a completed /v1/sweep call: per-element outcomes in grid
// order plus the daemon's sweep-engine statistics for the executed
// elements.
type SweepResult struct {
	// Elements are the per-element outcomes, index-aligned with
	// SweepSpec.Elements expansion order (placements outermost, crash
	// rounds innermost).
	Elements []SweepElement
	// Stats reports the incremental engine's sharing for this sweep's
	// cache misses.
	Stats rbcast.SweepStats
}

// SweepElement is one sweep element's outcome.
type SweepElement struct {
	Index       int            `json:"index"`
	Fingerprint string         `json:"fingerprint"`
	Result      *rbcast.Result `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
	// Cached reports the daemon served the element from its result cache
	// without simulating.
	Cached bool `json:"cached,omitempty"`
	// Partial marks an element the daemon's job deadline cut short.
	Partial bool `json:"partial,omitempty"`
}

// Run executes one scenario synchronously, retrying shed requests.
func (c *Client) Run(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (RunResult, error) {
	body, err := json.Marshal(rbcast.Job{Config: cfg, Plan: plan})
	if err != nil {
		return RunResult{}, fmt.Errorf("client: encoding scenario: %w", err)
	}
	var out RunResult
	hdr, data, err := c.do(ctx, http.MethodPost, "/v1/run", body, true)
	if err != nil {
		return RunResult{}, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return RunResult{}, fmt.Errorf("client: decoding run response: %w", err)
	}
	out.Cached = hdr.Get("X-Rbcast-Cache") == "hit"
	return out, nil
}

// Submit enqueues a batch job, retrying submissions the daemon sheds.
// workers ≤ 0 leaves the pool size to the daemon.
func (c *Client) Submit(ctx context.Context, jobs []rbcast.Job, workers int) (BatchAck, error) {
	body, err := json.Marshal(batchRequest{Jobs: jobs, Workers: workers})
	if err != nil {
		return BatchAck{}, fmt.Errorf("client: encoding batch: %w", err)
	}
	var ack BatchAck
	_, data, err := c.do(ctx, http.MethodPost, "/v1/batch", body, false)
	if err != nil {
		return BatchAck{}, err
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return BatchAck{}, fmt.Errorf("client: decoding batch ack: %w", err)
	}
	return ack, nil
}

// Sweep plans and executes a parameter grid on the daemon, retrying shed
// requests. The daemon expands base × axes server-side, serves cached
// elements without simulating, and shares work across the rest through the
// incremental sweep engine; every element is byte-identical to an
// independent Run. workers ≤ 0 leaves the pool size to the daemon.
func (c *Client) Sweep(ctx context.Context, base rbcast.Job, axes rbcast.SweepAxes, workers int) (SweepResult, error) {
	body, err := json.Marshal(sweepRequest{Base: base, Axes: axes, Workers: workers})
	if err != nil {
		return SweepResult{}, fmt.Errorf("client: encoding sweep: %w", err)
	}
	_, data, err := c.do(ctx, http.MethodPost, "/v1/sweep", body, true)
	if err != nil {
		return SweepResult{}, err
	}
	return parseSweepStream(data)
}

// parseSweepStream decodes the /v1/sweep NDJSON body: a header line with
// the planned element count, one line per element, and a stats trailer.
func parseSweepStream(data []byte) (SweepResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var header struct {
		Elements int `json:"elements"`
	}
	if err := dec.Decode(&header); err != nil {
		return SweepResult{}, fmt.Errorf("client: decoding sweep header: %w", err)
	}
	out := SweepResult{Elements: make([]SweepElement, 0, header.Elements)}
	for i := 0; i < header.Elements; i++ {
		var el SweepElement
		if err := dec.Decode(&el); err != nil {
			return SweepResult{}, fmt.Errorf("client: decoding sweep element %d: %w", i, err)
		}
		out.Elements = append(out.Elements, el)
	}
	var trailer struct {
		Stats rbcast.SweepStats `json:"stats"`
	}
	if err := dec.Decode(&trailer); err != nil {
		return SweepResult{}, fmt.Errorf("client: decoding sweep stats: %w", err)
	}
	out.Stats = trailer.Stats
	return out, nil
}

// Job fetches a batch job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	_, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, true)
	if err != nil {
		return JobStatus{}, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("client: decoding job status: %w", err)
	}
	return st, nil
}

// ProgressEvent mirrors one GET /v1/jobs/{id}/events NDJSON line: a
// cumulative, monotone snapshot of a batch job's execution.
type ProgressEvent struct {
	State      string `json:"state"` // "running" or "done"
	JobsDone   int    `json:"jobs_done"`
	JobsTotal  int    `json:"jobs_total"`
	NodeRounds int64  `json:"node_rounds"`
	DedupHits  int    `json:"dedup_hits"`
	Errors     int    `json:"errors"`
}

// Done reports whether this is the terminal event.
func (e ProgressEvent) Done() bool { return e.State == "done" }

// WatchJob streams a batch job's live progress from
// GET /v1/jobs/{id}/events, calling onEvent (may be nil) for each advance,
// and returns the final job status once the stream reports the terminal
// state. A truncated stream — the daemon's keep-alive cadence outlives the
// HTTP client's request timeout, proxies drop idle connections — is
// reconnected transparently; duplicate snapshots straddling a reconnect
// are suppressed, so onEvent still sees a monotone sequence. The retry
// budget (Options.MaxRetries) only counts reconnects that yielded no new
// events; a live, advancing stream can be watched indefinitely under ctx.
func (c *Client) WatchJob(ctx context.Context, id string, onEvent func(ProgressEvent)) (JobStatus, error) {
	var last ProgressEvent
	seen := false
	stalls := 0
	for {
		terminal, progressed, err := c.watchOnce(ctx, id, &last, &seen, onEvent)
		if terminal {
			// The terminal event closed the stream; fetch the results.
			return c.Job(ctx, id)
		}
		var se *StatusError
		if errors.As(err, &se) && !se.Temporary() {
			return JobStatus{}, err
		}
		if ctx.Err() != nil {
			return JobStatus{}, fmt.Errorf("client: watching job %s: %w (last failure: %v)", id, ctx.Err(), err)
		}
		if progressed {
			stalls = 0
		} else {
			stalls++
			if stalls > c.maxRetries {
				return JobStatus{}, fmt.Errorf("client: watching job %s: no progress after %d reconnects: %w", id, stalls, err)
			}
		}
		wait := c.backoff(stalls)
		if se != nil && se.RetryAfter > 0 && se.RetryAfter < c.maxBackoff {
			wait = se.RetryAfter
		}
		if err := c.sleep(ctx, wait); err != nil {
			return JobStatus{}, fmt.Errorf("client: watching job %s: %w", id, err)
		}
	}
}

// watchOnce runs one events-stream connection: it emits monotone advances
// to onEvent and reports whether the terminal event arrived and whether
// any new event did. Any other return is a truncated or refused stream,
// with err saying why.
func (c *Client) watchOnce(ctx context.Context, id string, last *ProgressEvent, seen *bool, onEvent func(ProgressEvent)) (terminal, progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, false, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, false, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(resp.Body)
		return false, false, &StatusError{
			Code:       resp.StatusCode,
			Message:    errorMessage(data),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			RequestID:  resp.Header.Get("X-Request-Id"),
		}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev ProgressEvent
		if derr := dec.Decode(&ev); derr != nil {
			return false, progressed, fmt.Errorf("client: job %s event stream: %w", id, derr)
		}
		// Heartbeat repeats and the replayed first snapshot after a
		// reconnect carry nothing new — suppress them.
		if !*seen || ev != *last {
			*last, *seen = ev, true
			progressed = true
			if onEvent != nil {
				onEvent(ev)
			}
		}
		if ev.Done() {
			return true, progressed, nil
		}
	}
}

// WaitJob polls a batch job until it is done or ctx expires. poll ≤ 0
// defaults to 50ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.Done() {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return JobStatus{}, fmt.Errorf("client: waiting for job %s: %w", id, err)
		}
	}
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	return err
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	_, data, err := c.do(ctx, http.MethodGet, "/metrics", nil, true)
	return string(data), err
}

// RequestSpan is one span in a flight-recorder timeline. Parent indexes
// the enclosing timeline's Spans (-1 for the root span at index 0).
type RequestSpan struct {
	Name            string            `json:"name"`
	Parent          int               `json:"parent"`
	StartSeconds    float64           `json:"start_seconds"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
}

// RequestTimeline is one recorded request's span timeline. ID matches the
// X-Request-Id the daemon echoed to the client (or the job id for
// asynchronous batch executions).
type RequestTimeline struct {
	ID              string        `json:"id"`
	Route           string        `json:"route"`
	Status          int           `json:"status,omitempty"`
	Begin           time.Time     `json:"begin"`
	DurationSeconds float64       `json:"duration_seconds"`
	Spans           []RequestSpan `json:"spans"`
	DroppedSpans    int           `json:"dropped_spans,omitempty"`
}

// DebugRequests mirrors the GET /debug/requests body.
type DebugRequests struct {
	Enabled  bool              `json:"enabled"`
	Capacity int               `json:"capacity"`
	Stored   int               `json:"stored"`
	Total    uint64            `json:"total"`
	Requests []RequestTimeline `json:"requests"`
}

// DebugRequests fetches the daemon's flight recorder. query is a raw
// query string ("" for all retained timelines, newest first): "n=K" caps
// the count, "sort=slowest" orders by duration, "min_ms=D" filters fast
// requests out.
func (c *Client) DebugRequests(ctx context.Context, query string) (DebugRequests, error) {
	path := "/debug/requests"
	if query != "" {
		path += "?" + query
	}
	var out DebugRequests
	_, data, err := c.do(ctx, http.MethodGet, path, nil, true)
	if err != nil {
		return DebugRequests{}, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return DebugRequests{}, fmt.Errorf("client: decoding debug requests: %w", err)
	}
	return out, nil
}

// do issues one request with the retry loop: temporary daemon failures
// (429/503) and transport errors back off and re-attempt, honoring
// Retry-After when present; everything else returns immediately. The body
// is replayed from the encoded bytes on every attempt.
//
// idempotent declares whether a duplicate delivery of this request is
// harmless. For non-idempotent requests a transport error is only retried
// when it proves the daemon never received the request (the dial itself
// failed); an ambiguous failure — connection reset mid-body, a timeout
// waiting for the response — returns immediately, because the first copy
// may have been accepted and a blind retry would duplicate it. Status
// errors are unaffected: a daemon that answered 429/503 is confirming it
// did not accept the request.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool) (http.Header, []byte, error) {
	var last error
	for attempt := 0; ; attempt++ {
		hdr, data, err := c.once(ctx, method, path, body)
		if err == nil {
			return hdr, data, nil
		}
		last = err
		wait := time.Duration(0)
		var se *StatusError
		if errors.As(err, &se) {
			if !se.Temporary() {
				return nil, nil, err
			}
			wait = se.RetryAfter
		} else {
			// Transport error: no daemon answer at all.
			if !idempotent && !confirmsNonReceipt(err) {
				return nil, nil, fmt.Errorf(
					"client: not retrying %s %s after an ambiguous transport failure (the request may have been accepted): %w",
					method, path, err)
			}
		}
		if ctx.Err() != nil || attempt >= c.maxRetries {
			return nil, nil, last
		}
		if wait <= 0 {
			wait = c.backoff(attempt)
		}
		if wait > c.maxBackoff {
			wait = c.maxBackoff
		}
		if err := c.sleep(ctx, wait); err != nil {
			return nil, nil, fmt.Errorf("client: %w (last failure: %v)", err, last)
		}
	}
}

// confirmsNonReceipt reports whether a transport error proves the server
// never received the request. Only a failed dial qualifies: the
// connection was never established, so no bytes reached the daemon. A
// reset mid-body, a broken pipe, or a response timeout all leave open the
// possibility that the daemon read the full request and acted on it.
func confirmsNonReceipt(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// once issues a single attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte) (http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode >= 400 {
		return nil, nil, &StatusError{
			Code:       resp.StatusCode,
			Message:    errorMessage(data),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			RequestID:  resp.Header.Get("X-Request-Id"),
		}
	}
	return resp.Header, data, nil
}

// backoff computes the jittered exponential delay for a retry attempt:
// full jitter over [d/2, d) where d doubles from BaseBackoff, capped at
// MaxBackoff. Jitter decorrelates a fleet of clients that were all shed by
// the same saturated daemon at the same instant.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.baseBackoff
	for i := 0; i < attempt && d < c.maxBackoff; i++ {
		d *= 2
	}
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	half := d / 2
	return half + time.Duration(c.jitter()*float64(half))
}

// parseRetryAfter reads a Retry-After value: delta-seconds or an HTTP-date.
// Values that ask for no wait — negative delta-seconds, an HTTP-date in the
// past, or garbage — clamp to 0; a negative duration must never escape here,
// or it would skew the backoff cap arithmetic in retry loops.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
		return 0
	}
	return 0
}

// errorMessage extracts the daemon's uniform {"error": "..."} body, falling
// back to the raw text for anything else.
func errorMessage(data []byte) string {
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(data))
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
