package runtime

import (
	"context"
	"fmt"
	"math/bits"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config mirrors sim.Config for the concurrent engine.
type Config struct {
	// Net is the radio network (required) — any topology.Graph family.
	// Transmissions follow topology.BestSchedule(Net), the sequential
	// engine's default schedule.
	Net topology.Graph
	// Factory builds each node's process (required). Run calls it once
	// per node, in id order, from the calling goroutine.
	Factory sim.ProcessFactory
	// CrashAt silences nodes from the given round onward (see sim.Config).
	CrashAt map[topology.NodeID]int
	// MaxRounds bounds the execution; 0 means sim.DefaultMaxRounds.
	MaxRounds int
	// Metrics is the run's instrumentation tap (optional), mirroring the
	// sequential engine's: per-round counts of broadcasts, deliveries
	// and commits, and with a recording collector every broadcast and
	// delivery event, all recorded by the coordinating goroutine in
	// deterministic order. Protocol counts and events (evidence, commits)
	// arrive from the workers, so their within-round interleaving is
	// scheduler-dependent. Nil disables it.
	Metrics *metrics.Collector
	// Context optionally bounds the run by wall clock, independent of
	// MaxRounds: cancellation is observed at round boundaries, the run
	// stops, and the partial result is returned with an error wrapping
	// sim.ErrDeadline. Nil costs nothing.
	Context context.Context
}

// PanicError is the value Run re-raises on its caller's goroutine when a
// process panics on a worker. It keeps the worker's stack, which the
// re-raise would otherwise lose.
type PanicError struct {
	// Node is the node whose process panicked; when several did in one
	// round, the lowest id.
	Node topology.NodeID
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at the panic (runtime/debug.Stack).
	Stack []byte
}

// Error renders the node and the panic value; the stack is carried
// separately.
func (p *PanicError) Error() string {
	return fmt.Sprintf("runtime: process of node %d panicked: %v", p.Node, p.Value)
}

// transmission is a message sent by a node in some round.
type transmission struct {
	from topology.NodeID
	msg  sim.Message
}

// nodeState is one node's process and bookkeeping. It is also the
// sim.Context handed to the node's process; its outbox keeps its capacity
// across rounds.
type nodeState struct {
	id    topology.NodeID
	round int
	proc  sim.Process
	out   []sim.Message // broadcasts produced this round
}

// Self implements sim.Context.
func (st *nodeState) Self() topology.NodeID { return st.id }

// Round implements sim.Context.
func (st *nodeState) Round() int { return st.round }

// Broadcast implements sim.Context.
func (st *nodeState) Broadcast(m sim.Message) { st.out = append(st.out, m) }

var _ sim.Context = (*nodeState)(nil)

// span is one worker's share of a round: the receivers ids[lo:hi].
type span struct{ lo, hi int }

// engine is one run's state. The coordinator (the goroutine in Run) owns
// every field between rounds; during a round the workers read the fan-out
// fields and each touches only the node states of its own span.
type engine struct {
	net       topology.Graph
	tap       *metrics.Collector
	states    []nodeState
	decisions []sim.Decision    // per id; only the coordinator writes them
	crashAt   []int             // first silent round per id (noCrash = never)
	order     []topology.NodeID // ids in transmission order (sim.SlotOrder)
	rank      []int             // rank[id] is id's position in order
	// outMark holds the ranks, not the ids, of nodes with queued
	// broadcasts, so reading it back yields transmission order.
	outMark topology.NodeSet
	pending []transmission // this round's transmissions, in transmission order

	// Fan-out of one round. The receivers are ids, in id order; the
	// deliveries of ids[j] are the pending indexes inbox[off[j]:off[j+1]],
	// in pending order.
	active topology.NodeSet // receivers, while counting
	cnt    []int            // per id: deliveries, then the fill cursor
	ids    []topology.NodeID
	off    []int
	inbox  []int
	round  int

	work   []chan span // one per worker
	wg     sync.WaitGroup
	exited sync.WaitGroup
	panics []*PanicError // per worker: its panic this round, if any
}

// Run executes the configured protocol to quiescence (or MaxRounds, or
// Context expiry) and returns a result identical to the sequential
// engine's in lock-step mode. On expiry the partial result is returned
// together with an error wrapping sim.ErrDeadline; any other error means
// the configuration was rejected and the result is zero.
//
// A process that panics on a worker does not crash the program: the
// worker recovers, the round completes, and Run re-raises a *PanicError
// on the caller's goroutine after every worker has exited.
func Run(cfg Config) (sim.Result, error) {
	if cfg.Net == nil {
		return sim.Result{}, fmt.Errorf("runtime: Config.Net is required")
	}
	if cfg.Factory == nil {
		return sim.Result{}, fmt.Errorf("runtime: Config.Factory is required")
	}
	maxR := cfg.MaxRounds
	if maxR <= 0 {
		maxR = sim.DefaultMaxRounds
	}
	e := newEngine(cfg)

	// Round 0: Init runs on this goroutine, in id order.
	for i := range e.states {
		if e.crashAt[i] <= 0 {
			continue
		}
		st := &e.states[i]
		st.proc.Init(st)
		e.settle(st, 0)
	}
	e.collect(1)

	// Two workers at least, so even one CPU sees concurrent deliveries.
	e.start(min(max(goruntime.GOMAXPROCS(0), 2), max(len(e.states), 1)))
	defer e.stop()

	var done <-chan struct{}
	if cfg.Context != nil {
		done = cfg.Context.Done()
	}
	var deadlineErr error
	stats := sim.Stats{}
	recording := e.tap.Recording()
	for round := 1; round <= maxR; round++ {
		if done != nil {
			select {
			case <-done:
				deadlineErr = fmt.Errorf("runtime: %w after %d rounds: %w",
					sim.ErrDeadline, stats.Rounds, cfg.Context.Err())
			default:
			}
			if deadlineErr != nil {
				break
			}
		}
		if len(e.pending) == 0 {
			stats.Quiesced = true
			break
		}
		stats.Rounds = round
		stats.Broadcasts += len(e.pending)
		e.tap.AddBroadcasts(round, int64(len(e.pending)))
		if recording {
			for _, tx := range e.pending {
				e.tap.Broadcast(round, tx.from, uint8(tx.msg.Kind), tx.msg.Value, tx.msg.Origin, tx.msg.Path)
			}
		}
		deliveries := e.fanOut(round)
		stats.Deliveries += deliveries
		e.tap.AddDeliveries(round, int64(deliveries))

		e.deliver(round)
		for _, id := range e.ids {
			e.settle(&e.states[id], round)
		}
		e.collect(round + 1)
	}

	return sim.Result{Stats: stats, Decisions: e.decisions}, deadlineErr
}

// noCrash is the crashAt sentinel for nodes that never crash.
const noCrash = int(^uint(0) >> 1) // max int

// newEngine builds every node's process and the per-run buffers, all
// sized once.
func newEngine(cfg Config) *engine {
	size := cfg.Net.Size()
	e := &engine{
		net:       cfg.Net,
		tap:       cfg.Metrics,
		states:    make([]nodeState, size),
		decisions: make([]sim.Decision, size),
		crashAt:   make([]int, size),
		order:     sim.SlotOrder(size, topology.BestSchedule(cfg.Net)),
		rank:      make([]int, size),
		outMark:   topology.NewNodeSet(size),
		active:    topology.NewNodeSet(size),
		cnt:       make([]int, size),
		ids:       make([]topology.NodeID, 0, size),
		off:       make([]int, 0, size+1),
	}
	for i := range e.states {
		id := topology.NodeID(i)
		e.states[i] = nodeState{id: id, proc: cfg.Factory(id)}
		e.crashAt[i] = noCrash
	}
	for id, at := range cfg.CrashAt {
		if int(id) >= 0 && int(id) < size {
			e.crashAt[id] = at
		}
	}
	for r, id := range e.order {
		e.rank[id] = r
	}
	return e
}

// settle notes a node's first decision and marks its queued broadcasts
// for collection. Only the coordinator calls it, in id order, so commits
// are counted deterministically.
func (e *engine) settle(st *nodeState, round int) {
	if d := &e.decisions[st.id]; !d.Decided {
		if v, ok := st.proc.Decided(); ok {
			*d = sim.Decision{Value: v, Decided: true, Round: round}
			e.tap.AddCommit(round)
		}
	}
	if len(st.out) > 0 {
		e.outMark.Add(topology.NodeID(e.rank[st.id]))
	}
}

// collect moves the marked outboxes into pending, in transmission order,
// dropping the broadcasts of nodes that are silent by txRound.
func (e *engine) collect(txRound int) {
	e.pending = e.pending[:0]
	for w, word := range e.outMark {
		for word != 0 {
			st := &e.states[e.order[w*64+bits.TrailingZeros64(word)]]
			word &= word - 1
			if e.crashAt[st.id] > txRound {
				for _, m := range st.out {
					e.pending = append(e.pending, transmission{from: st.id, msg: m})
				}
			}
			st.out = st.out[:0]
		}
		e.outMark[w] = 0
	}
}

// fanOut lays out the round's deliveries in the flat inbox and returns
// their count. Each receiver's deliveries keep pending order, so every
// process hears the same sequence as in the sequential engine.
func (e *engine) fanOut(round int) int {
	recording := e.tap.Recording()
	n := 0
	for _, tx := range e.pending {
		for _, nb := range e.net.Neighbors(tx.from) {
			if !e.hears(nb, round, &tx.msg) {
				continue
			}
			if recording {
				e.tap.Delivery(round, nb, tx.from, uint8(tx.msg.Kind), tx.msg.Value, tx.msg.Origin, tx.msg.Path)
			}
			if e.cnt[nb] == 0 {
				e.active.Add(nb)
			}
			e.cnt[nb]++
			n++
		}
	}
	// Receivers in id order; prefix sums turn each count into its fill
	// cursor.
	e.ids, e.off = e.ids[:0], e.off[:0]
	at := 0
	for w, word := range e.active {
		for word != 0 {
			id := topology.NodeID(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			e.ids = append(e.ids, id)
			e.off = append(e.off, at)
			at, e.cnt[id] = at+e.cnt[id], at
		}
		e.active[w] = 0
	}
	e.off = append(e.off, at)
	e.inbox = slices.Grow(e.inbox[:0], n)[:n]
	for k := range e.pending {
		tx := &e.pending[k]
		for _, nb := range e.net.Neighbors(tx.from) {
			if !e.hears(nb, round, &tx.msg) {
				continue
			}
			e.inbox[e.cnt[nb]] = k
			e.cnt[nb]++
		}
	}
	for _, id := range e.ids {
		e.cnt[id] = 0
	}
	return n
}

// hears reports whether neighbor nb receives m in the round: it must not
// be crashed, and a directional transmission must include it (see
// sim.Message.Audience).
func (e *engine) hears(nb topology.NodeID, round int, m *sim.Message) bool {
	return e.crashAt[nb] > round && m.Audience.Includes(nb)
}

// start launches the run's workers.
func (e *engine) start(workers int) {
	e.work = make([]chan span, workers)
	e.panics = make([]*PanicError, workers)
	e.exited.Add(workers)
	for w := range e.work {
		e.work[w] = make(chan span, 1)
		go e.worker(w)
	}
}

// stop ends the workers and waits until all have exited.
func (e *engine) stop() {
	for _, ch := range e.work {
		close(ch)
	}
	e.exited.Wait()
}

// worker delivers the spans it is handed, one per round, until stop.
func (e *engine) worker(w int) {
	defer e.exited.Done()
	for s := range e.work[w] {
		e.deliverSpan(w, s)
		e.wg.Done()
	}
}

// deliverSpan hands every receiver in s its inbox. A panicking process
// ends the span; the panic is kept for the coordinator to re-raise.
func (e *engine) deliverSpan(w int, s span) {
	var id topology.NodeID
	defer func() {
		if r := recover(); r != nil {
			e.panics[w] = &PanicError{Node: id, Value: r, Stack: debug.Stack()}
		}
	}()
	pending := e.pending
	for j := s.lo; j < s.hi; j++ {
		id = e.ids[j]
		st := &e.states[id]
		st.round = e.round
		for _, k := range e.inbox[e.off[j]:e.off[j+1]] {
			st.proc.Deliver(st, pending[k].from, pending[k].msg)
		}
	}
}

// deliver splits the round's receivers into one contiguous span per
// worker, waits for every span, and re-raises the first worker panic.
func (e *engine) deliver(round int) {
	e.round = round
	n := len(e.ids)
	workers := min(len(e.work), n)
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		e.work[w] <- span{lo: w * n / workers, hi: (w + 1) * n / workers}
	}
	e.wg.Wait()
	for _, p := range e.panics[:workers] {
		if p != nil {
			panic(p)
		}
	}
}
