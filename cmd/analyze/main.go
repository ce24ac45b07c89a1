// Command analyze predicts a broadcast outcome statically — no simulation —
// using the guaranteed-commit closures of package analysis, then optionally
// cross-checks the prediction against the simulator. Useful for screening
// adversarial placements quickly: the closures run in milliseconds where a
// full protocol simulation may take seconds.
//
// With -sweep it switches to dynamic mode: every fault bound t from 0 up to
// the crash impossibility point is simulated through rbcast.RunSweepJobs
// across a worker pool, printing one row per t with the outcome and the
// measured traffic from the metrics layer.
package main

import (
	"flag"
	"fmt"
	"os"

	rbcast "repro"
	"repro/internal/analysis"
	"repro/internal/bounds"
	"repro/internal/evidence"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/protocol"
	"repro/internal/topology"
)

func main() {
	var (
		width   = flag.Int("width", 16, "torus width")
		height  = flag.Int("height", 10, "torus height")
		radius  = flag.Int("radius", 1, "transmission radius r")
		proto   = flag.String("protocol", "bv4", "protocol: flood, cpa, bv2, bv4 (bv2 only with -sweep)")
		tBound  = flag.Int("t", -1, "fault bound (default: protocol's max for r)")
		place   = flag.String("faults", "greedy", "placement: none, band, checkerboard, greedy, random")
		seed    = flag.Int64("seed", 1, "seed for random placement")
		verify  = flag.Bool("verify", false, "also run the simulator and compare")
		sweep   = flag.Bool("sweep", false, "simulate every t from 0 to the crash impossibility point via the batch runner")
		workers = flag.Int("workers", 0, "worker pool size for -sweep (<=0 means GOMAXPROCS)")
	)
	flag.Parse()

	if *sweep {
		runSweep(*width, *height, *radius, *proto, *place, *seed, *workers)
		return
	}

	net, err := topology.New(grid.Torus{W: *width, H: *height}, grid.Linf, *radius)
	if err != nil {
		fatal("%v", err)
	}
	src := net.IDOf(grid.C(0, 0))
	tVal := *tBound
	if tVal < 0 {
		if *proto == "cpa" {
			tVal = bounds.MaxCPALinf(*radius)
		} else {
			tVal = bounds.MaxByzantineLinf(*radius)
		}
	}

	var faults []topology.NodeID
	switch *place {
	case "none":
	case "band":
		for _, x0 := range []int{*width / 4, 3 * *width / 4} {
			faults = append(faults, fault.Band(net, x0, *radius)...)
		}
	case "checkerboard":
		for _, x0 := range []int{*width / 4, 3 * *width / 4} {
			band, err := fault.CheckerboardBand(net, x0, *radius)
			if err != nil {
				fatal("%v", err)
			}
			faults = append(faults, band...)
		}
	case "greedy":
		for _, x0 := range []int{*width / 4, 3 * *width / 4} {
			band, err := fault.GreedyBand(net, x0, *radius, tVal)
			if err != nil {
				fatal("%v", err)
			}
			faults = append(faults, band...)
		}
	case "random":
		faults, err = fault.RandomBounded(net, tVal, -1, *seed)
		if err != nil {
			fatal("%v", err)
		}
	default:
		fatal("unknown placement %q", *place)
	}
	kept := faults[:0]
	for _, id := range faults {
		if id != src {
			kept = append(kept, id)
		}
	}
	faults = kept

	var pred analysis.Prediction
	switch *proto {
	case "flood":
		pred, err = analysis.FloodReachable(net, src, faults)
	case "cpa":
		pred, err = analysis.CPAClosure(net, src, faults, tVal)
	case "bv4":
		var ft *evidence.FamilyTable
		ft, err = evidence.NewFamilyTable(*radius)
		if err == nil {
			pred, err = analysis.BV4Closure(net, ft, src, faults, tVal)
		}
	default:
		fatal("unknown protocol %q (analyze supports flood, cpa, bv4)", *proto)
	}
	if err != nil {
		fatal("%v", err)
	}

	honest := net.Size() - len(faults)
	fmt.Printf("prediction: %d/%d honest nodes guaranteed to commit (closure depth %d)\n",
		pred.Count, honest, pred.Rounds)
	if pred.All(net, faults) {
		fmt.Println("verdict: reliable broadcast GUARANTEED against any adversary behaviour")
	} else {
		fmt.Printf("verdict: %d honest nodes NOT guaranteed (a silent adversary stalls them)\n",
			honest-pred.Count)
	}

	if *verify {
		kind := map[string]protocol.Kind{"flood": protocol.Flood, "cpa": protocol.CPA, "bv4": protocol.BV4}[*proto]
		cfg := protocol.RunConfig{
			Kind:   kind,
			Params: protocol.Params{Net: net, Source: src, Value: 1, T: tVal},
		}
		if *proto == "flood" {
			m := make(map[topology.NodeID]int, len(faults))
			for _, id := range faults {
				m[id] = 0
			}
			cfg.Crash = m
		} else {
			m := make(map[topology.NodeID]fault.Strategy, len(faults))
			for _, id := range faults {
				m[id] = fault.Silent
			}
			cfg.Byzantine = m
		}
		out, err := protocol.Run(cfg)
		if err != nil {
			fatal("%v", err)
		}
		agree := true
		for id := 0; id < net.Size(); id++ {
			_, decided := out.Result.Decided[topology.NodeID(id)]
			if pred.Committed[id] != decided {
				agree = false
				break
			}
		}
		fmt.Printf("simulation: %d commits in %d rounds — prediction %s\n",
			len(out.Result.Decided), out.Result.Stats.Rounds,
			map[bool]string{true: "CONFIRMED", false: "DIVERGED"}[agree])
		if !agree {
			os.Exit(1)
		}
	}
}

// runSweep simulates the protocol at every fault bound t from 0 to the
// crash impossibility point, dispatching all cells as one
// rbcast.RunSweepJobs call. Rows print in t order regardless of worker
// count.
func runSweep(width, height, radius int, proto, place string, seed int64, workers int) {
	protoKind, ok := map[string]rbcast.Protocol{
		"flood": rbcast.ProtocolFlood,
		"cpa":   rbcast.ProtocolCPA,
		"bv2":   rbcast.ProtocolBV2,
		"bv4":   rbcast.ProtocolBV4,
	}[proto]
	if !ok {
		fatal("unknown protocol %q (sweep supports flood, cpa, bv2, bv4)", proto)
	}
	placement, ok := map[string]rbcast.Placement{
		"band":         rbcast.PlaceBand,
		"checkerboard": rbcast.PlaceCheckerboardBand,
		"greedy":       rbcast.PlaceGreedyBand,
		"random":       rbcast.PlaceRandomBounded,
	}[place]
	if !ok && place != "none" {
		fatal("unknown placement %q", place)
	}
	strategy := rbcast.StrategySilent
	if protoKind == rbcast.ProtocolFlood {
		strategy = rbcast.StrategyCrash
	}

	tMax := rbcast.MinImpossibleCrashLinf(radius)
	jobs := make([]rbcast.Job, 0, tMax+1)
	for t := 0; t <= tMax; t++ {
		cfg := rbcast.Config{
			Width: width, Height: height, Radius: radius,
			Protocol: protoKind, T: t, Value: 1,
		}
		plan := rbcast.FaultPlan{Placement: placement, Strategy: strategy, Budget: t, Seed: seed}
		if t == 0 || place == "none" {
			plan = rbcast.FaultPlan{}
		}
		jobs = append(jobs, rbcast.Job{Config: cfg, Plan: plan})
	}
	results, _ := rbcast.RunSweepJobs(jobs, rbcast.BatchOptions{Workers: workers})

	fmt.Printf("sweep: %s on %dx%d torus, r=%d, %s faults (silent adversary unless flood)\n",
		proto, width, height, radius, place)
	fmt.Println("t    outcome  faults  broadcasts  rounds")
	for t, br := range results {
		if br.Err != nil {
			fatal("t=%d: %v", t, br.Err)
		}
		res := br.Result
		outcome := "stall"
		switch {
		case !res.Safe():
			outcome = "UNSAFE"
		case res.AllCorrect():
			outcome = "ok"
		}
		fmt.Printf("%-4d %-8s %-7d %-11d %d\n",
			t, outcome, res.Faults, res.Broadcasts, res.Rounds)
	}
}

// fatal prints an error and exits.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "analyze: "+format+"\n", args...)
	os.Exit(1)
}
