// Package analysis predicts protocol outcomes statically, without running
// the message-passing simulation: reachability closure for crash-stop
// flooding (§VII), the t+1-committed-neighbors closure for the simple
// protocol (§IX), and the designated-evidence closure of the indirect-report
// protocol (§VI). Against a silent adversary the predictions are exact, so
// the analyzer doubles as a differential oracle for the simulator
// (experiment E24) and as a fast screening tool for adversarial placements.
//
// Silent faults are the worst case for liveness: any transmission a
// Byzantine node chooses to make can only add evidence for honest nodes
// (wrong-value evidence never blocks correct commits, by Theorem 2). The
// closures below therefore compute exactly the set of nodes that must
// commit no matter what the faulty nodes do.
package analysis
