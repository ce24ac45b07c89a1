// Package runtime executes the same Process state machines as package sim,
// but with a goroutine per node communicating over channels — the natural
// Go embedding of the paper's node-per-grid-point model. Rounds are
// lock-step: all messages produced in round k are delivered in round k+1,
// matching sim.ModeNextRound exactly, so the two engines are differentially
// testable against each other.
//
// Within a round every node processes its (deterministically ordered) inbox
// concurrently; the coordinator collects transmissions, applies crash
// filtering, and fans deliveries out for the next round. The result is
// bit-for-bit identical to the sequential engine while genuinely exercising
// Go's concurrency runtime.
//
// Config.Metrics is the same one instrumentation tap as in package sim, a
// *metrics.Collector, fed at the same points; only the within-round order
// of the events protocols record from node goroutines differs.
package runtime
