// Package protocol implements the paper's four broadcast protocols as
// sim.Process state machines over a shared radio network:
//
//   - Flood — the crash-stop protocol of §VII: commit to the first value
//     heard, relay once.
//   - CPA — the "extremely simple" protocol of §IX (Koo's protocol, called
//     the Certified Propagation Algorithm in later work): commit when t+1
//     neighbors announced the same value.
//   - BV4 — the paper's main contribution (§VI): indirect HEARD reports up
//     to four hops, commit on t+1 reliably-determined committers inside one
//     neighborhood. Tolerates t < r(2r+1)/2 in L∞ (Theorem 1).
//   - BV2 — the simplified two-hop protocol of §VI-B with the same
//     threshold.
//
// All honest processes enforce the medium's assumptions defensively: a
// COMMITTED message's origin is its authenticated sender; a HEARD message's
// last relay must be its sender; and for contradictory retransmissions only
// the first version is accepted (§V). BV4, BV2 and Bracha drop any
// message that names a node id outside the network: such an id has no
// grid coordinate and no place in a tally.
//
// Every process holds one instrumentation tap, the *metrics.Collector of
// Params.Metrics. BV4, BV2 and Bracha make one EvidenceEval call per
// commit-rule evaluation, which counts it and, on a recording collector,
// records it. Every protocol records its commits, and all but flooding
// record spoofed attributions; certificates are built only when the
// collector is recording.
package protocol
