package protocol

import (
	"repro/internal/etrace"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// floodProc is the crash-stop protocol of §VII: "Each node that receives a
// value, commits to it, re-broadcasts it once for the benefit of others, and
// then may terminate local execution of the protocol." No fault bound is
// consulted — with crash-stop failures the sole criterion is reachability.
type floodProc struct {
	self    topology.NodeID
	source  topology.NodeID
	value   byte
	decided bool
	tap     *metrics.Collector // records commits; never counts (nil = off)
}

// newFloodFactory builds flood processes from slab chunks of Net.Size()
// processes.
func newFloodFactory(p Params) sim.ProcessFactory {
	n := p.Net.Size()
	var procs slab[floodProc]
	return func(id topology.NodeID) sim.Process {
		f := procs.take(n)
		*f = floodProc{self: id, source: p.Source, value: p.Value, tap: p.Metrics}
		return f
	}
}

// Init implements sim.Process.
func (f *floodProc) Init(ctx sim.Context) {
	if f.self == f.source {
		f.decided = true
		if f.tap.Recording() {
			f.tap.Commit(ctx.Round(), f.self, f.value,
				&etrace.Certificate{Rule: etrace.RuleSource, Value: f.value})
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: f.value})
	}
}

// Deliver implements sim.Process.
func (f *floodProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if f.decided || m.Kind != sim.KindValue {
		return
	}
	f.decided = true
	f.value = m.Value
	if f.tap.Recording() {
		// Delivery provenance: with crash-stop faults the sole commit
		// justification is "who handed us the value".
		f.tap.Commit(ctx.Round(), f.self, m.Value, &etrace.Certificate{
			Rule: etrace.RuleFlood, Value: m.Value,
			Voters: []topology.NodeID{from},
		})
	}
	ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: m.Value})
}

// Decided implements sim.Process.
func (f *floodProc) Decided() (byte, bool) {
	if !f.decided {
		return 0, false
	}
	return f.value, true
}

// cloneFloods is flood's sim.Config.Clone: flood state is a handful of
// scalars, so copying every process into one slab is an exact fork. The
// clones share the collector pointer with the originals. That is still
// exact: flood makes only record-only calls on it, and forking is gated to
// engines whose collector does not record.
func cloneFloods(procs []sim.Process) []sim.Process {
	clones, _ := cloneSlab[floodProc](procs)
	return clones
}

var _ sim.Process = (*floodProc)(nil)
