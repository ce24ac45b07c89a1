// Package etrace defines the structured execution events — broadcasts,
// deliveries, evidence evaluations, crashes, spoofed attributions and
// commits with their justifying certificates — that let a run answer the
// question the paper's staged-induction arguments answer on paper: *why*
// did node g commit value v at round k (Thm 1–3, §VI-B; Thm 6, §IX).
//
// It holds types only. A recording metrics.Collector (metrics.NewRecording)
// keeps these events for a traced run; see package metrics for the tap
// discipline and the determinism of the recorded order.
//
// etrace deliberately depends only on topology (metrics imports etrace,
// and sim imports metrics), so message kinds travel as raw uint8 and are
// re-interpreted by the public conversion layer in the root package.
package etrace
