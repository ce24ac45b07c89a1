// Package evidence implements the commit rules of the paper's Byzantine
// broadcast protocols (§VI, §VI-B): recorded-report storage, the exact
// "t+1 internally node-disjoint recorded paths inside one single
// neighborhood" test, and the topology-aware designated-family mode — the
// paper's "earmarking exact messages that a node should lookout for"
// optimization, built from the constructive proof's explicit path families.
//
// A Store keeps each recorded chain once, in its value's log, with the
// relays inline, so the logs hold no pointer; an origin's chains are
// linked through int32 indexes into that log. The packing rules borrow
// their scratch from a pool shared by every store.
package evidence
