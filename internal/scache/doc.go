// Package scache provides the scenario result cache behind rbcastd: a
// bounded LRU keyed by canonical scenario fingerprint, with single-flight
// deduplication so concurrent identical requests execute the underlying
// simulation exactly once.
//
// The cache is value-generic rather than tied to rbcast.Result, so the
// root package bounds its shared network cache (topology graphs keyed by
// their constructor parameters) with the same policy. Errors are never
// cached: a failing execution is reported to every coalesced waiter and
// then forgotten, so a transient failure cannot poison a fingerprint.
package scache
