// Package metrics is the one instrumentation tap of the simulation engines
// and protocols. A Collector counts broadcasts, deliveries, evidence
// evaluations and commits per engine round ("how much"); a recording
// collector (NewRecording) also keeps every event with its commit
// certificate, in the internal/etrace types ("why"). Totals are column
// sums of the per-round rows, so there is one form of each count.
//
// Tap discipline: a nil *Collector is a valid no-op sink, every method
// begins with a nil check, and the engines and protocols tap
// unconditionally. Event methods (Broadcast, Delivery, Crash, Spoof,
// Commit) record only; protocols consult Recording before building a
// certificate, so an untraced run pays one predictable branch per event
// site and allocates nothing for events, which the allocation gates
// enforce. EvidenceEval is the one call per evaluation site: it counts,
// and records when the collector is recording.
//
// All methods are safe for concurrent use: on the concurrent runtime the
// protocols tap evidence evaluations and commit events from several
// workers at once.
// Both engines drive the same taps, which is what makes the counters
// differentially testable across them.
//
// Determinism of recorded events: on the sequential engine the event order
// is fully deterministic. On the concurrent runtime, broadcast and
// delivery events and the commit counts are recorded by the engine's
// coordinator in deterministic order, but evidence and commit events are
// recorded from the workers,
// so their interleaving within a round varies run to run. The set of
// events and every per-node subsequence are still deterministic; consumers
// needing a canonical order sort by (Round, Node, record order).
package metrics
