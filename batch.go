package rbcast

import (
	"context"
	"sync"
	"time"
)

// Job pairs one scenario with its adversary for batch execution. Its
// canonical identity is Fingerprint (encode.go), which keys the rbcastd
// result cache.
type Job struct {
	Config Config    `json:"config"`
	Plan   FaultPlan `json:"plan"`
}

// BatchResult is the outcome of one job of a RunSweepJobs or RunSweep call.
type BatchResult struct {
	// Result is the job's outcome. It is valid when Err is nil, and also —
	// as a partial result — when Err wraps ErrDeadline (see RunContext).
	// For any other error it is the zero Result.
	Result Result
	// Err captures the job's own failure: an invalid config, a cancelled
	// or expired context (wrapping ErrDeadline), or a panic (a
	// *PanicError carrying the stack). A failure reaches only the jobs
	// that share its execution unit (see BatchOptions.JobTimeout).
	Err error
}

// ProgressUpdate is one live snapshot of a RunSweepJobs execution,
// delivered through BatchOptions.Progress. Snapshots are cumulative and
// monotone: each reflects all work settled so far.
type ProgressUpdate struct {
	// Done counts jobs resolved so far; Total is the job count.
	Done, Total int
	// NodeRounds is the simulated work performed so far: Σ rounds ×
	// network size over completed executions, counting forked
	// continuations only past their fork point.
	NodeRounds int64
	// SharedResults counts jobs resolved by sharing another job's
	// execution instead of simulating (SweepStats.SharedResults so far).
	SharedResults int
}

// BatchOptions configures RunSweepJobs and RunSweep. The zero value runs
// with GOMAXPROCS workers, no cancellation and no deadline.
type BatchOptions struct {
	// Workers caps the worker pool; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Context optionally cancels the call: jobs not yet started when it
	// is done complete immediately with Err = Context.Err(), and jobs in
	// flight stop at their next round boundary with a partial Result and
	// an Err wrapping ErrDeadline. It also carries the optional request
	// trace (internal/obs): when armed, workers record one "job" span per
	// execution unit under the span the context names.
	Context context.Context
	// JobTimeout optionally bounds the wall-clock time of each execution
	// unit, independent of Config.MaxRounds. A unit is one shared
	// execution, or a whole crash-round fork family: the family shares
	// its trunk, so it is cut together, and every job in a cut unit stops
	// at the next round boundary with the unit's partial Result and an
	// Err wrapping ErrDeadline. Jobs in other units are unaffected. ≤ 0
	// means no bound.
	JobTimeout time.Duration
	// Progress, when non-nil, receives a cumulative ProgressUpdate after
	// each execution unit settles. Calls are serialized and snapshots
	// monotone, so callers can publish them directly; the callback must
	// be fast — it runs on the worker that finished the unit.
	Progress func(ProgressUpdate)
}

// progressTracker serializes Progress callbacks and keeps the cumulative
// snapshot monotone across concurrently finishing workers.
type progressTracker struct {
	mu sync.Mutex
	up ProgressUpdate
	fn func(ProgressUpdate)
}

// newProgressTracker returns nil when no callback is armed — the nil
// tracker's add is a no-op, mirroring the repo's nil-sink tap pattern.
func newProgressTracker(fn func(ProgressUpdate), total int) *progressTracker {
	if fn == nil {
		return nil
	}
	return &progressTracker{up: ProgressUpdate{Total: total}, fn: fn}
}

// add folds one settled execution unit into the snapshot and delivers it.
func (p *progressTracker) add(done int, nodeRounds int64, shared int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.up.Done += done
	p.up.NodeRounds += nodeRounds
	p.up.SharedResults += shared
	up := p.up
	p.mu.Unlock()
	p.fn(up)
}
