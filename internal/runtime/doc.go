// Package runtime executes the same Process state machines as package sim,
// but processes each round's deliveries in parallel — the paper's one
// process per grid point, run on real concurrency. Rounds are lock-step:
// all messages produced in round k are delivered in round k+1, matching
// sim.ModeNextRound exactly, so the two engines are differentially testable
// against each other.
//
// A run starts max(GOMAXPROCS, 2) worker goroutines once and keeps them to
// the end; two at least, so the race detector sees concurrent deliveries
// even on one CPU. Each round the coordinating goroutine fans the
// transmissions out into one flat inbox, reused across rounds, in which
// every receiver's deliveries keep transmission order. It hands every
// worker one contiguous range of the receivers, in id order, and waits at
// the round barrier. Then it notes decisions in id order and collects the
// next round's broadcasts in transmission order (sim.SlotOrder), applying
// crash filtering. A round therefore allocates and synchronises once, not
// once per receiving node, and the result is bit-for-bit identical to the
// sequential engine's.
//
// A panicking process does not take the program down: its worker recovers
// and still reaches the barrier, and Run re-raises the panic as a
// *PanicError, carrying the worker's stack, on the caller's goroutine.
//
// Config.Metrics is the same one instrumentation tap as in package sim, a
// *metrics.Collector, fed at the same points; only the within-round order
// of the events protocols record from the workers differs.
package runtime
