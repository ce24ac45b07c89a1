package protocol

import (
	"slices"

	"repro/internal/etrace"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// cpaProc is the simple protocol of §IX (Koo's protocol; the Certified
// Propagation Algorithm): the source transmits its value; the source's
// neighbors commit instantly and announce their committed value once; every
// other node commits when it has heard the same value announced by at least
// t+1 distinct neighbors, announces once, and terminates. Theorem 6 proves
// this tolerates t ≤ (2/3)r² in L∞.
type cpaProc struct {
	self    topology.NodeID
	source  topology.NodeID
	t       int
	spoof   bool // §X study: medium does not authenticate senders
	value   byte
	decided bool
	// votes[v] counts distinct neighbors that announced value v. Only a
	// neighbor's first announcement counts (§V: accept the first version,
	// ignore the rest), so the heard set is the dedup and plain counters
	// suffice — no per-value membership sets on the delivery path.
	votes [2]int
	// heard lists the senders whose announcement was consumed. Every
	// entry adds a vote and a commit ends the counting, so it never holds
	// more than votes[0]+votes[1] ≤ 2t+1 ids.
	heard []topology.NodeID
	tap   *metrics.Collector // records spoofs and commits; never counts (nil = off)
	// voters[v] retains the counted announcers per value — trace-only
	// state (the vote-set certificate), never allocated on untraced runs.
	voters [2][]topology.NodeID
}

// newCPAFactory builds CPA processes from slab chunks of Net.Size()
// processes, and carves each heard list from a shared pool, which is not
// indexed by id either.
func newCPAFactory(p Params) sim.ProcessFactory {
	// A heard list holds at most 2t+1 ids, and without spoofing only
	// neighbors, so a node's carve is min(2t+1, degree). Comparing t with
	// the degree first keeps 2t+1 from overflowing. The carve is also the
	// list's capacity, so spoofed senders past it spill into fresh memory
	// instead of into the next process's carve.
	carve := func(id topology.NodeID) int {
		deg := len(p.Net.Neighbors(id))
		if p.T < deg {
			return min(2*p.T+1, deg)
		}
		return deg
	}
	n := p.Net.Size()
	poolSize := 0
	for i := 0; i < n; i++ {
		poolSize += carve(topology.NodeID(i))
	}
	var procs slab[cpaProc]
	var pool []topology.NodeID
	return func(id topology.NodeID) sim.Process {
		c := procs.take(n)
		k := carve(id)
		if len(pool) < k {
			pool = make([]topology.NodeID, max(poolSize, k))
		}
		*c = cpaProc{
			self:   id,
			source: p.Source,
			t:      p.T,
			spoof:  p.SpoofingPossible,
			value:  p.Value,
			heard:  pool[:0:k],
			tap:    p.Metrics,
		}
		pool = pool[k:]
		return c
	}
}

// Init implements sim.Process.
func (c *cpaProc) Init(ctx sim.Context) {
	if c.self == c.source {
		c.decided = true
		if c.tap.Recording() {
			c.tap.Commit(ctx.Round(), c.self, c.value,
				&etrace.Certificate{Rule: etrace.RuleSource, Value: c.value})
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: c.value})
	}
}

// Deliver implements sim.Process.
func (c *cpaProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if c.decided || m.Kind != sim.KindValue || m.Value > 1 {
		return
	}
	sender := attributedSender(c.spoof, from, m)
	if sender != from && c.tap.Recording() {
		c.tap.Spoof(ctx.Round(), c.self, from, sender)
	}
	// Direct reception from the designated source: commit immediately.
	if sender == c.source {
		var cert *etrace.Certificate
		if c.tap.Recording() {
			cert = &etrace.Certificate{Rule: etrace.RuleDirect, Value: m.Value,
				Voters: []topology.NodeID{sender}}
		}
		c.commit(ctx, m.Value, cert)
		return
	}
	if slices.Contains(c.heard, sender) {
		return // only a neighbor's first announcement counts
	}
	c.heard = append(c.heard, sender)
	c.votes[m.Value]++
	if c.tap.Recording() {
		c.voters[m.Value] = append(c.voters[m.Value], sender)
	}
	if c.votes[m.Value] >= c.t+1 {
		var cert *etrace.Certificate
		if c.tap.Recording() {
			cert = &etrace.Certificate{Rule: etrace.RuleVotes, Value: m.Value,
				Voters: append([]topology.NodeID(nil), c.voters[m.Value]...)}
		}
		c.commit(ctx, m.Value, cert)
	}
}

// commit records the decision and makes the one-time announcement. cert is
// nil on untraced runs.
func (c *cpaProc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
	c.decided = true
	c.value = v
	if c.tap.Recording() {
		c.tap.Commit(ctx.Round(), c.self, v, cert)
	}
	ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: v})
}

// Decided implements sim.Process.
func (c *cpaProc) Decided() (byte, bool) {
	if !c.decided {
		return 0, false
	}
	return c.value, true
}

// cloneCPAs is CPA's sim.Config.Clone. It copies the processes into one
// slab and their heard lists into one pool, each list keeping its capacity
// so the fork's votes fill its carve as the original's would, and copies
// the trace-only voter lists, so the fork's vote bookkeeping evolves
// independently of the original's. The clones share the collector pointer
// with the originals. That is still exact: CPA makes only record-only
// calls on it, and forking is gated to engines whose collector does not
// record.
func cloneCPAs(procs []sim.Process) []sim.Process {
	clones, slab := cloneSlab[cpaProc](procs)
	size := 0
	for i := range slab {
		size += cap(slab[i].heard)
	}
	pool := make([]topology.NodeID, size)
	for i := range slab {
		c := &slab[i]
		k := cap(c.heard)
		c.heard = pool[:copy(pool, c.heard):k]
		pool = pool[k:]
		for v := range c.voters {
			c.voters[v] = slices.Clone(c.voters[v])
		}
	}
	return clones
}

var _ sim.Process = (*cpaProc)(nil)
