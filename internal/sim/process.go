package sim

import "repro/internal/topology"

// Context is the interface a Process uses to interact with the medium. The
// engine passes a fresh view each delivery; processes must not retain it
// across calls.
type Context interface {
	// Self returns the node's own id.
	Self() topology.NodeID
	// Round returns the current TDMA frame number, starting at 1.
	Round() int
	// Broadcast queues m for local broadcast in this node's next
	// transmission slot. All queued messages are sent in FIFO order; the
	// shared channel preserves this order at every receiver.
	Broadcast(m Message)
}

// Process is a protocol state machine running at one node. Implementations
// must be deterministic: the engines replay the same delivery sequence and
// expect identical behaviour.
//
// Honest protocol processes and Byzantine adversary processes implement the
// same interface; the medium guarantees (identity, no-duplicity, ordering)
// are enforced by the engine, not trusted to the process.
type Process interface {
	// Init is called once before round 1; the source's initial broadcast
	// is queued here.
	Init(ctx Context)
	// Deliver is called for each message heard from neighbor `from`, in
	// slot order within a round.
	Deliver(ctx Context, from topology.NodeID, m Message)
	// Decided reports the value the node has committed to, if any. For
	// adversarial processes the return is ignored.
	Decided() (byte, bool)
}

// ProcessFactory builds the process for each node. The fault plan decides
// which nodes get honest protocol processes and which get adversarial or
// crashed ones.
//
// Every call returns a fresh process that shares no mutable state with any
// other, so one factory may build the processes of several engines. The
// engines call a factory from one goroutine at a time, so a factory may
// keep unsynchronized state such as the slab its processes are carved
// from.
type ProcessFactory func(id topology.NodeID) Process

// NopProcess ignores all deliveries and never decides; it models a node
// that crashed before the execution started.
type NopProcess struct{}

// Init implements Process.
func (NopProcess) Init(Context) {}

// Deliver implements Process.
func (NopProcess) Deliver(Context, topology.NodeID, Message) {}

// Decided implements Process.
func (NopProcess) Decided() (byte, bool) { return 0, false }

var _ Process = NopProcess{}
