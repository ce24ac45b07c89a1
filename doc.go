// Package rbcast is a library for studying reliable broadcast in grid radio
// networks under Byzantine and crash-stop failures, reproducing Bhandari &
// Vaidya, "On Reliable Broadcast in a Radio Network" (PODC 2005).
//
// The model: nodes sit on the unit grid (wrapped onto a finite torus, which
// the paper notes is equivalent to the infinite grid), share a perfectly
// reliable collision-free radio channel with transmission radius r, and a
// locally bounded adversary may corrupt at most t nodes in any single closed
// neighborhood. A designated source broadcasts one binary value; reliable
// broadcast succeeds when every honest node commits to it.
//
// The package exposes:
//
//   - the paper's four protocols (crash-stop flooding, the simple CPA
//     protocol, the 4-hop indirect-report protocol of Theorem 1, and the
//     simplified 2-hop variant of §VI-B);
//   - the exact fault-tolerance thresholds as functions of r;
//   - adversary construction (worst-case bands, random locally bounded
//     placements, iid percolation failures) and Byzantine strategies;
//   - a deterministic round/slot simulator and a concurrent lock-step
//     runtime, whose workers process each round's deliveries in parallel,
//     that agree execution-for-execution.
//
// A minimal run:
//
//	cfg := rbcast.Config{
//		Width: 16, Height: 10, Radius: 1,
//		Protocol: rbcast.ProtocolBV4,
//		T:        rbcast.MaxByzantineLinf(1),
//		Value:    1,
//	}
//	plan := rbcast.FaultPlan{
//		Placement: rbcast.PlaceGreedyBand,
//		Strategy:  rbcast.StrategyForger,
//	}
//	res, err := rbcast.Run(cfg, plan)
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package rbcast
