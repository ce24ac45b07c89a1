// Package sim implements the synchronous, collision-free radio medium of the
// paper as a deterministic round/slot engine. Each round is one full TDMA
// frame: nodes transmit in slot order and every local broadcast is heard by
// all neighbors — the paper's "reliable local broadcast assumption" (§II).
// Per-node message ordering is preserved, identities cannot be spoofed, and
// transmissions never collide.
//
// The engine is protocol-agnostic: protocols (and Byzantine adversaries) are
// Process state machines driven by Deliver events.
//
// Config.Metrics is the engine's one instrumentation tap, a
// *metrics.Collector. The engine counts broadcasts and deliveries into it
// once per round and each decision when it observes it; a recording
// collector also gets one broadcast event per message and one delivery
// event per receiver. Protocols count and record their own events
// through the same collector.
package sim
