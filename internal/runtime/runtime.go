package runtime

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config mirrors sim.Config for the concurrent engine.
type Config struct {
	// Net is the radio network (required) — any topology.Graph family.
	Net topology.Graph
	// Schedule fixes the deterministic delivery order; defaults to
	// topology.BestSchedule(Net).
	Schedule topology.Schedule
	// Factory builds each node's process (required).
	Factory sim.ProcessFactory
	// CrashAt silences nodes from the given round onward (see sim.Config).
	CrashAt map[topology.NodeID]int
	// MaxRounds bounds the execution; 0 means sim.DefaultMaxRounds.
	MaxRounds int
	// Workers caps the number of concurrently processing node goroutines;
	// 0 means one goroutine per node (fully concurrent).
	Workers int
	// Metrics is the run's instrumentation tap (optional), mirroring the
	// sequential engine's: per-round counts of broadcasts, deliveries
	// and commits, and with a recording collector every broadcast and
	// delivery event, recorded in the deterministic fan-out loops.
	// Protocol counts and events (evidence, commits) arrive from node
	// goroutines, so their within-round interleaving is
	// scheduler-dependent. Nil disables it.
	Metrics *metrics.Collector
	// Context optionally bounds the run by wall clock, independent of
	// MaxRounds: cancellation is observed at round boundaries, the run
	// stops, and the partial result is returned with an error wrapping
	// sim.ErrDeadline. Nil costs nothing.
	Context context.Context
}

// transmission is a message sent by a node in some round.
type transmission struct {
	from topology.NodeID
	msg  sim.Message
}

// nodeState is the per-goroutine worker state. Its inbox, outbox and
// Context are all reused across rounds, so a steady-state round allocates
// only the goroutine launches themselves.
type nodeState struct {
	id      topology.NodeID
	proc    sim.Process
	inbox   []transmission // deliveries for the current round, pre-sorted
	out     []sim.Message  // broadcasts produced this round
	ctx     nodeCtx        // reused Context; round is set each round
	decided bool
	value   byte
	decRnd  int
}

// nodeCtx adapts the worker state to sim.Context.
type nodeCtx struct {
	st    *nodeState
	round int
}

// Self implements sim.Context.
func (c *nodeCtx) Self() topology.NodeID { return c.st.id }

// Round implements sim.Context.
func (c *nodeCtx) Round() int { return c.round }

// Broadcast implements sim.Context.
func (c *nodeCtx) Broadcast(m sim.Message) { c.st.out = append(c.st.out, m) }

var _ sim.Context = (*nodeCtx)(nil)

// Run executes the configured protocol to quiescence (or MaxRounds, or
// Context expiry) and returns a result identical in shape to the sequential
// engine's. On expiry the partial result is returned together with an error
// wrapping sim.ErrDeadline; any other error means the configuration was
// rejected and the result is zero.
func Run(cfg Config) (sim.Result, error) {
	if cfg.Net == nil {
		return sim.Result{}, fmt.Errorf("runtime: Config.Net is required")
	}
	if cfg.Factory == nil {
		return sim.Result{}, fmt.Errorf("runtime: Config.Factory is required")
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = topology.BestSchedule(cfg.Net)
	}
	maxR := cfg.MaxRounds
	if maxR <= 0 {
		maxR = sim.DefaultMaxRounds
	}
	net := cfg.Net
	size := net.Size()

	states := make([]*nodeState, size)
	for i := 0; i < size; i++ {
		id := topology.NodeID(i)
		states[i] = &nodeState{id: id, proc: cfg.Factory(id)}
		states[i].ctx.st = states[i]
	}

	slotOf := func(id topology.NodeID) int { return sched.SlotOf(id) }
	// crashAt[id] is the first silent round (noCrash = never); a dense
	// array keeps the per-delivery crash check off the map path.
	crashAt := make([]int, size)
	for i := range crashAt {
		crashAt[i] = noCrash
	}
	for id, at := range cfg.CrashAt {
		if int(id) >= 0 && int(id) < size {
			crashAt[id] = at
		}
	}

	// Round 0: initialize processes (sequentially; Init is cheap and the
	// source broadcast must be deterministic anyway).
	var pending []transmission
	for _, st := range states {
		if crashAt[st.id] <= 0 {
			continue
		}
		st.ctx.round = 0
		st.proc.Init(&st.ctx)
		st.noteDecision(0, cfg.Metrics)
		pending = st.drainInto(pending, 1, crashAt) // transmits in round 1
	}
	sortTransmissions(pending, slotOf)

	stats := sim.Stats{}
	workers := cfg.Workers
	if workers <= 0 || workers > size {
		workers = size
	}

	// Per-round scratch, allocated once: the active-receiver mark bitset,
	// the sorted active-id list and the worker-cap semaphore.
	activeMark := topology.NewNodeSet(size)
	ids := make([]topology.NodeID, 0, size)
	sem := make(chan struct{}, workers)

	var done <-chan struct{}
	if cfg.Context != nil {
		done = cfg.Context.Done()
	}
	var deadlineErr error
	recording := cfg.Metrics.Recording()

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
		if len(pending) == 0 {
			stats.Quiesced = true
			break
		}
		stats.Rounds = round
		stats.Broadcasts += len(pending)
		cfg.Metrics.AddBroadcasts(round, int64(len(pending)))
		if recording {
			for _, tx := range pending {
				cfg.Metrics.Broadcast(round, tx.from, uint8(tx.msg.Kind), tx.msg.Value, tx.msg.Origin, tx.msg.Path)
			}
		}

		// Fan deliveries out to receiver inboxes. pending is already in
		// slot order, so each inbox is deterministically ordered.
		ids = ids[:0]
		roundDeliveries := int64(0)
		for _, tx := range pending {
			for _, nb := range net.Neighbors(tx.from) {
				if crashAt[nb] <= round {
					continue
				}
				if !tx.msg.Audience.Includes(nb) {
					continue // directional transmission (adversarial; see sim.Message.Audience)
				}
				stats.Deliveries++
				roundDeliveries++
				if recording {
					cfg.Metrics.Delivery(round, nb, tx.from, uint8(tx.msg.Kind), tx.msg.Value, tx.msg.Origin, tx.msg.Path)
				}
				states[nb].inbox = append(states[nb].inbox, tx)
				if !activeMark.Has(nb) {
					activeMark.Add(nb)
					ids = append(ids, nb)
				}
			}
		}
		cfg.Metrics.AddDeliveries(round, roundDeliveries)

		// Process all inboxes concurrently, in deterministic id order.
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

		var wg sync.WaitGroup
		for _, id := range ids {
			st := states[id]
			activeMark.Remove(id)
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				st.ctx.round = round
				for _, tx := range st.inbox {
					st.proc.Deliver(&st.ctx, tx.from, tx.msg)
				}
				st.inbox = st.inbox[:0]
				st.noteDecision(round, cfg.Metrics)
			}()
		}
		wg.Wait()

		// Collect next round's transmissions in slot order.
		pending = pending[:0]
		for _, id := range ids {
			pending = states[id].drainInto(pending, round+1, crashAt)
		}
		sortTransmissions(pending, slotOf)
	}

	res := sim.Result{
		Stats:        stats,
		Decided:      make(map[topology.NodeID]byte, size),
		DecidedRound: make(map[topology.NodeID]int, size),
	}
	for _, st := range states {
		if st.decided {
			res.Decided[st.id] = st.value
			res.DecidedRound[st.id] = st.decRnd
		}
	}
	return res, deadlineErr
}

// noCrash is the crashAt sentinel for nodes that never crash.
const noCrash = int(^uint(0) >> 1) // max int

// drainInto appends the node's produced broadcasts to pending as
// transmissions, dropping them if the node will be crashed when they would
// transmit. The node's outbox keeps its capacity for the next round.
func (st *nodeState) drainInto(pending []transmission, txRound int, crashAt []int) []transmission {
	if len(st.out) == 0 {
		return pending
	}
	out := st.out
	st.out = st.out[:0]
	if crashAt[st.id] <= txRound {
		return pending
	}
	for _, m := range out {
		pending = append(pending, transmission{from: st.id, msg: m})
	}
	return pending
}

// noteDecision records the first decision.
func (st *nodeState) noteDecision(round int, mc *metrics.Collector) {
	if st.decided {
		return
	}
	if v, ok := st.proc.Decided(); ok {
		st.decided = true
		st.value = v
		st.decRnd = round
		mc.AddCommit(round)
	}
}

// sortTransmissions orders by (sender slot, sender id, FIFO within sender).
func sortTransmissions(txs []transmission, slotOf func(topology.NodeID) int) {
	sort.SliceStable(txs, func(i, j int) bool {
		si, sj := slotOf(txs[i].from), slotOf(txs[j].from)
		if si != sj {
			return si < sj
		}
		return txs[i].from < txs[j].from
	})
}
