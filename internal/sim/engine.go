package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// ErrDeadline reports that a run was stopped by its Context before reaching
// quiescence or MaxRounds. The result returned alongside it is the partial
// state at the round boundary where the cancellation was observed. Errors
// wrapping it also wrap the context's own error, so callers can distinguish
// a deadline (context.DeadlineExceeded) from an explicit cancellation
// (context.Canceled) with errors.Is.
var ErrDeadline = errors.New("run deadline exceeded")

// DeliveryMode selects when a queued broadcast is transmitted relative to
// the round in which it was produced.
type DeliveryMode int

const (
	// ModeFrame (default) models a full TDMA frame per round: a node whose
	// slot comes after the sender's hears and may react within the same
	// frame. Broadcasts therefore cascade down the slot order inside one
	// round.
	ModeFrame DeliveryMode = iota + 1
	// ModeNextRound defers every broadcast to the next round: all messages
	// produced in round k are transmitted (in slot order) in round k+1.
	// This is the lock-step semantics used by the concurrent runtime.
	ModeNextRound
)

// Config configures an engine run.
type Config struct {
	// Net is the radio network (required) — any topology.Graph family.
	Net topology.Graph
	// Schedule fixes transmission order; defaults to BestSchedule(Net).
	Schedule topology.Schedule
	// Mode selects frame or lock-step delivery; defaults to ModeFrame.
	Mode DeliveryMode
	// Factory builds each node's process (required).
	Factory ProcessFactory
	// CrashAt silences a node from the given round onward (1-based;
	// round 0 or negative means crashed from the start). Nodes absent
	// from the map never crash. Crashes are atomic at frame boundaries,
	// so local broadcasts are heard by all neighbors or none — the
	// reliable-local-broadcast assumption is never violated.
	CrashAt map[topology.NodeID]int
	// MaxRounds bounds the execution; 0 means DefaultMaxRounds.
	MaxRounds int
	// Medium configures the optional unreliable-channel extension. The
	// zero value is the paper's ideal medium (no loss, one transmission
	// per message).
	Medium Medium
	// Metrics is the run's instrumentation tap (optional). The engine
	// counts broadcasts, deliveries and commits per round into it, and a
	// recording collector also keeps every broadcast and delivery event;
	// protocols add their own counts and events through the same
	// collector. Nil disables it at zero cost; the counters mirror Stats
	// exactly.
	Metrics *metrics.Collector
	// Context optionally bounds the run by wall clock, independent of
	// MaxRounds: cancellation is observed at frame boundaries, the run
	// stops, and the partial result is returned with an error wrapping
	// ErrDeadline. Nil (or a context that is never done) costs nothing on
	// the hot path.
	Context context.Context
	// Clone, when set, lets the engine Fork: it returns independent deep
	// copies of the Factory's processes, in the same order, each evolving
	// separately from its original. Processes cloned this way may hold a
	// metrics.Collector but must make only record-only calls on it (never
	// a counting one such as EvidenceEval), so that a clone sharing the
	// parent's collector stays exact on the non-recording collectors
	// forks require. Nil makes the engine not forkable.
	Clone func(procs []Process) []Process
}

// Medium models the channel-quality extension of §II/§X: the paper's ideal
// medium delivers every local broadcast to every neighbor, but a real
// wireless channel suffers accidental collisions and transmission errors.
// The paper notes a local-broadcast primitive "can provide probabilistic
// guarantees" when each transmission succeeds with some probability; this
// models exactly that, with per-receiver iid loss and blind retransmission.
type Medium struct {
	// LossRate is the per-transmission per-receiver drop probability in
	// [0, 1). Zero (default) is the ideal reliable channel.
	LossRate float64
	// Retransmit is the number of times each broadcast is transmitted
	// (the probabilistic reliable-local-broadcast primitive); values < 1
	// mean 1. A receiver processes the first surviving copy only —
	// deduplication is the receiver's job, which every honest protocol
	// here already performs.
	Retransmit int
	// Seed drives the loss process deterministically.
	Seed int64
}

// lossy reports whether the medium deviates from the ideal channel.
func (m Medium) lossy() bool { return m.LossRate > 0 }

// DefaultMaxRounds bounds runs whose protocols fail to quiesce.
const DefaultMaxRounds = 10_000

// Stats aggregates an execution.
type Stats struct {
	// Rounds is the number of TDMA frames executed.
	Rounds int
	// Broadcasts counts local broadcasts transmitted.
	Broadcasts int
	// Deliveries counts per-receiver message deliveries.
	Deliveries int
	// Quiesced reports whether the run ended because no node had
	// anything left to transmit (as opposed to hitting MaxRounds).
	Quiesced bool
}

// Decision is one node's outcome. Value and Round are zero while
// Decided is false.
type Decision struct {
	// Value is the committed value.
	Value byte
	// Decided reports whether the node committed.
	Decided bool
	// Round is the frame in which the decision was first observed (after
	// the node's deliveries of that frame; 0 = at Init).
	Round int
}

// Result is the outcome of an engine run.
type Result struct {
	Stats Stats
	// Decisions is indexed by node id and covers every node.
	Decisions []Decision
}

// Commits returns the number of nodes that decided.
func (r Result) Commits() int {
	n := 0
	for _, d := range r.Decisions {
		if d.Decided {
			n++
		}
	}
	return n
}

// noCrash is the crashRound sentinel for nodes that never crash.
const noCrash = int(^uint(0) >> 1) // max int

// Engine is the deterministic round/slot executor.
//
// The hot path is allocation-free in steady state: decision and crash
// tracking use dense per-node arrays instead of maps, the Context handed to
// processes is a single reused value (processes must not retain it — see
// Context), and drained outbox buffers are recycled through a free list
// instead of being reallocated every frame.
type Engine struct {
	net    topology.Graph
	sched  topology.Schedule
	mode   DeliveryMode
	procs  []Process
	order  []topology.NodeID // node ids in slot order
	outbox [][]Message
	free   [][]Message // drained outbox buffers, recycled by Broadcast
	snap   [][]Message // ModeNextRound: reusable frozen-outbox snapshot
	// crashRound[id] is the first silent round (noCrash = never).
	crashRound []int
	maxR       int
	medium     Medium
	tap        *metrics.Collector
	clone      func([]Process) []Process // Config.Clone
	rng        *rand.Rand                // non-nil only for a lossy medium
	decisions  []Decision                // indexed by node id
	ctx        nodeCtx                   // reused Context; fields are set before each call
	stats      Stats
	// runCtx is Config.Context; done is its Done channel, hoisted so the
	// per-frame check is a single nil test plus a non-blocking select.
	runCtx context.Context
	done   <-chan struct{}
}

// NewEngine validates cfg and builds the engine with all processes
// initialized (Init runs in slot order, with round = 0).
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("sim: Config.Net is required")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("sim: Config.Factory is required")
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = topology.BestSchedule(cfg.Net)
	}
	maxR := cfg.MaxRounds
	if maxR <= 0 {
		maxR = DefaultMaxRounds
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = ModeFrame
	}
	if mode != ModeFrame && mode != ModeNextRound {
		return nil, fmt.Errorf("sim: invalid delivery mode %d", int(mode))
	}
	if cfg.Medium.LossRate < 0 || cfg.Medium.LossRate >= 1 {
		return nil, fmt.Errorf("sim: loss rate %v outside [0,1)", cfg.Medium.LossRate)
	}
	size := cfg.Net.Size()
	e := &Engine{
		net:        cfg.Net,
		sched:      sched,
		mode:       mode,
		procs:      make([]Process, size),
		order:      SlotOrder(size, sched),
		outbox:     make([][]Message, size),
		crashRound: make([]int, size),
		maxR:       maxR,
		medium:     cfg.Medium,
		tap:        cfg.Metrics,
		clone:      cfg.Clone,
		decisions:  make([]Decision, size),
	}
	e.ctx.engine = e
	if cfg.Context != nil {
		e.runCtx = cfg.Context
		e.done = cfg.Context.Done()
	}
	if mode == ModeNextRound {
		e.snap = make([][]Message, size)
	}
	for i := range e.crashRound {
		e.crashRound[i] = noCrash
	}
	for id, at := range cfg.CrashAt {
		if int(id) >= 0 && int(id) < size {
			e.crashRound[id] = at
		}
	}
	if e.medium.Retransmit < 1 {
		e.medium.Retransmit = 1
	}
	if e.medium.lossy() {
		e.rng = rand.New(rand.NewSource(e.medium.Seed))
	}
	for _, id := range e.order {
		e.procs[id] = cfg.Factory(id)
	}
	for _, id := range e.order {
		if e.isCrashed(id, 0) {
			continue
		}
		e.ctx.id, e.ctx.round = id, 0
		e.procs[id].Init(&e.ctx)
		e.noteDecision(0, id)
	}
	return e, nil
}

// SlotOrder returns the ids [0, size) in transmission order: by slot of
// sched, ties by id (slots repeat across cells). Both engines transmit in
// this order, which is what makes their lock-step runs agree.
func SlotOrder(size int, sched topology.Schedule) []topology.NodeID {
	order := make([]topology.NodeID, size)
	for i := range order {
		order[i] = topology.NodeID(i)
	}
	slices.SortFunc(order, func(a, b topology.NodeID) int {
		if c := cmp.Compare(sched.SlotOf(a), sched.SlotOf(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// survives reports whether at least one of the Retransmit copies of a
// transmission reaches a given receiver. On the ideal medium it is always
// true and consumes no randomness.
func (e *Engine) survives() bool {
	if !e.medium.lossy() {
		return true
	}
	for i := 0; i < e.medium.Retransmit; i++ {
		if e.rng.Float64() >= e.medium.LossRate {
			return true
		}
	}
	return false
}

// isCrashed reports whether id is silent in the given round.
func (e *Engine) isCrashed(id topology.NodeID, round int) bool {
	return round >= e.crashRound[id]
}

// noteDecision records and counts a first-time decision.
func (e *Engine) noteDecision(round int, id topology.NodeID) {
	d := &e.decisions[id]
	if d.Decided {
		return
	}
	if v, ok := e.procs[id].Decided(); ok {
		*d = Decision{Value: v, Decided: true, Round: round}
		e.tap.AddCommit(round)
	}
}

// Step executes one TDMA frame. It returns true if any node transmitted.
func (e *Engine) Step() bool {
	e.stats.Rounds++
	round := e.stats.Rounds
	progress := false
	var roundBroadcasts, roundDeliveries int64
	recording := e.tap.Recording()
	if e.mode == ModeNextRound {
		// Lock-step: freeze all outboxes before any delivery so broadcasts
		// produced this round wait for the next. The snapshot buffer is
		// reused across rounds.
		copy(e.snap, e.outbox)
		for i := range e.outbox {
			e.outbox[i] = nil
		}
	}
	for _, from := range e.order {
		var out []Message
		if e.mode == ModeNextRound {
			out = e.snap[from]
			e.snap[from] = nil
		} else {
			out = e.outbox[from]
			e.outbox[from] = nil
		}
		if len(out) == 0 {
			continue
		}
		if !e.isCrashed(from, round) {
			for _, m := range out {
				progress = true
				e.stats.Broadcasts += e.medium.Retransmit
				roundBroadcasts += int64(e.medium.Retransmit)
				if recording {
					e.tap.Broadcast(round, from, uint8(m.Kind), m.Value, m.Origin, m.Path)
				}
				for _, nb := range e.net.Neighbors(from) {
					if e.isCrashed(nb, round) {
						continue
					}
					if !m.Audience.Includes(nb) {
						continue // directional transmission (adversarial; see Message.Audience)
					}
					if !e.survives() {
						continue // lost to an accidental collision / channel error
					}
					e.stats.Deliveries++
					roundDeliveries++
					if recording {
						// Before Deliver, so a commit event triggered by
						// this message follows its delivery in the record.
						e.tap.Delivery(round, nb, from, uint8(m.Kind), m.Value, m.Origin, m.Path)
					}
					e.ctx.id, e.ctx.round = nb, round
					e.procs[nb].Deliver(&e.ctx, from, m)
					e.noteDecision(round, nb)
				}
			}
		}
		e.free = append(e.free, out[:0]) // recycle the drained buffer
	}
	e.tap.AddBroadcasts(round, roundBroadcasts)
	e.tap.AddDeliveries(round, roundDeliveries)
	return progress
}

// Run executes frames until quiescence, MaxRounds, or Context expiry. On
// expiry it returns the partial result together with an error wrapping both
// ErrDeadline and the context's error; otherwise the error is nil.
func (e *Engine) Run() (Result, error) {
	if _, err := e.runUntil(e.maxR); err != nil {
		return e.result(), err
	}
	return e.result(), nil
}

// expired reports whether the run context is done. It never blocks and is
// free when no context was configured.
func (e *Engine) expired() bool {
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// result snapshots decisions and stats.
func (e *Engine) result() Result {
	return Result{Stats: e.stats, Decisions: slices.Clone(e.decisions)}
}

// nodeCtx is the per-delivery Context implementation.
type nodeCtx struct {
	engine *Engine
	id     topology.NodeID
	round  int
}

// Self implements Context.
func (c *nodeCtx) Self() topology.NodeID { return c.id }

// Round implements Context.
func (c *nodeCtx) Round() int { return c.round }

// Broadcast implements Context.
func (c *nodeCtx) Broadcast(m Message) {
	e := c.engine
	if e.outbox[c.id] == nil {
		// Reuse a drained buffer instead of growing a fresh one.
		if n := len(e.free); n > 0 {
			e.outbox[c.id] = e.free[n-1]
			e.free = e.free[:n-1]
		}
	}
	e.outbox[c.id] = append(e.outbox[c.id], m)
}

var _ Context = (*nodeCtx)(nil)

// Run is the one-call convenience wrapper: build an engine and run it. A
// non-nil error wrapping ErrDeadline accompanies a *partial* result; any
// other error means the configuration was rejected and the result is zero.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
