package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// CloneableProcess is a Process whose full state can be duplicated, letting
// the engine fork a running execution. Honest protocol processes implement
// it when their state is a value snapshot (no shared mutable references
// escape); the returned clone must evolve independently of the original.
// A cloneable process may hold a metrics.Collector but must make only
// record-only calls on it (never a counting one such as EvidenceEval), so
// that a clone sharing the parent's collector stays exact on the
// non-recording collectors forks require.
type CloneableProcess interface {
	Process
	// CloneProcess returns an independent deep copy of the process.
	CloneProcess() Process
}

// Forkable reports whether the engine supports Fork: a deterministic,
// side-effect-free configuration (a collector that does not record, ideal
// medium — a lossy medium consumes shared rng state) whose processes are
// all cloneable. Callers gate sweep prefix-sharing on this; anything
// non-forkable simply runs scalar.
func (e *Engine) Forkable() bool {
	if e.rng != nil || e.tap.Recording() {
		return false
	}
	for _, p := range e.procs {
		if _, ok := p.(CloneableProcess); !ok {
			return false
		}
	}
	return true
}

// Fork duplicates the engine's execution state at the current frame
// boundary, applying a new crash schedule and metrics collector to the
// branch. The fork shares only immutable structure with its parent (network,
// schedule, slot order, queued Message values); all mutable state — process
// state machines, outbox queues, decision tracking, stats — is deep-copied,
// so parent and fork can each continue running independently and
// deterministically.
//
// Fork must be called between frames (never from inside Step) and requires
// Forkable. The new crash schedule must not revive the past: a node already
// silent in executed rounds must stay silent at the same rounds, or the
// branch's prefix would no longer match a from-scratch run. Fork validates
// that crashAt only changes behaviour at rounds strictly after the current
// one and rejects rewrites of history.
func (e *Engine) Fork(crashAt map[topology.NodeID]int, collector *metrics.Collector) (*Engine, error) {
	if !e.Forkable() {
		return nil, fmt.Errorf("sim: engine is not forkable")
	}
	size := e.net.Size()
	executed := e.stats.Rounds // frames already run; round numbers 1..executed
	f := &Engine{
		net:        e.net,
		sched:      e.sched,
		mode:       e.mode,
		procs:      make([]Process, size),
		order:      e.order, // immutable after NewEngine
		outbox:     make([][]Message, size),
		crashRound: make([]int, size),
		maxR:       e.maxR,
		medium:     e.medium,
		tap:        collector,
		decided:    e.decided.Clone(),
		decidedVal: append([]byte(nil), e.decidedVal...),
		decRound:   append([]int(nil), e.decRound...),
		nDecided:   e.nDecided,
		stats:      e.stats,
		runCtx:     e.runCtx,
		done:       e.done,
	}
	f.ctx.engine = f
	if f.mode == ModeNextRound {
		f.snap = make([][]Message, size)
	}
	for i := range f.crashRound {
		old := e.crashRound[i]
		nw := noCrash
		if at, ok := crashAt[topology.NodeID(i)]; ok {
			nw = at
		}
		// History check: within rounds 0..executed the old and new schedules
		// must agree, or the already-simulated prefix is invalid for the
		// branch. A schedule only diverging at future rounds is exactly the
		// wavefront-prefix reuse Fork exists for.
		oldPast := min(old, executed+1)
		newPast := min(nw, executed+1)
		if oldPast != newPast {
			return nil, fmt.Errorf("sim: fork rewrites history for node %d: crash round %d vs %d with %d rounds executed",
				i, old, nw, executed)
		}
		f.crashRound[i] = nw
	}
	for i, p := range e.procs {
		f.procs[i] = p.(CloneableProcess).CloneProcess()
	}
	// Queued messages are immutable once broadcast (see Message), so a
	// shallow per-node slice copy fully detaches the queues.
	for i, out := range e.outbox {
		if len(out) > 0 {
			f.outbox[i] = append([]Message(nil), out...)
		}
	}
	return f, nil
}

// Rounds returns the number of frames executed so far.
func (e *Engine) Rounds() int { return e.stats.Rounds }

// Terminated reports whether the run has ended (quiescence or MaxRounds);
// further RunUntil calls will make no progress.
func (e *Engine) Terminated() bool {
	return e.stats.Quiesced || e.stats.Rounds >= e.maxR
}

// RunUntil executes frames until the engine has run `round` frames, or until
// quiescence, MaxRounds, or Context expiry — whichever comes first. It
// returns true when the run terminated (so the current state is final) and
// false when it merely paused at the requested frame boundary. Interleaving
// RunUntil calls with Fork is the sweep engine's wavefront-prefix reuse:
// identical executions advance once to the last shared round, then branch.
func (e *Engine) RunUntil(round int) (bool, error) {
	return e.runUntil(round)
}

// Result snapshots the current decisions and stats without running anything.
// After a terminated run it equals the Result returned by Run.
func (e *Engine) Result() Result { return e.result() }

// runUntil is the shared frame loop behind Run and RunUntil. The bookkeeping
// must stay byte-identical to the historical Run loop: a final empty frame
// is subtracted from Rounds and flagged as quiescence.
func (e *Engine) runUntil(limit int) (bool, error) {
	if limit > e.maxR {
		limit = e.maxR
	}
	if e.Terminated() {
		return true, nil
	}
	for e.stats.Rounds < limit {
		if e.expired() {
			return true, fmt.Errorf("sim: %w after %d rounds: %w",
				ErrDeadline, e.stats.Rounds, e.runCtx.Err())
		}
		if !e.Step() {
			e.stats.Rounds-- // final empty frame is bookkeeping, not protocol time
			e.stats.Quiesced = true
			return true, nil
		}
	}
	return e.stats.Rounds >= e.maxR, nil
}
