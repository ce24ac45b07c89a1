// Command broadcast-sim runs one reliable-broadcast scenario on a torus
// radio network and prints the outcome, optionally with an ASCII map of the
// per-node decisions ('#' committed correctly, 'X' committed wrongly,
// '.' undecided, 'F' faulty). -frames renders the bordered per-round
// wavefront frames; -trace-out dumps the structured execution trace as
// JSON Lines ("-" for stdout), byte-identical to rbcastd's
// GET /v1/jobs/{id}/trace for the same scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	var (
		width    = flag.Int("width", 16, "torus width")
		height   = flag.Int("height", 10, "torus height")
		radius   = flag.Int("radius", 1, "transmission radius r")
		metric   = flag.String("metric", "linf", "distance metric: linf or l2")
		proto    = flag.String("protocol", "bv4", "protocol: flood, cpa, bv4, bv2")
		tBound   = flag.Int("t", -1, "per-neighborhood fault bound (default: protocol's max for r)")
		value    = flag.Int("value", 1, "source value (0 or 1)")
		place    = flag.String("faults", "none", "placement: none, band, checkerboard, greedy, random, percolation")
		strategy = flag.String("strategy", "crash", "fault behaviour: crash, silent, liar, forger, spoofer")
		prob     = flag.Float64("p", 0.2, "percolation failure probability")
		seed     = flag.Int64("seed", 1, "seed for randomized placements")
		conc     = flag.Bool("concurrent", false, "use the concurrent engine (parallel workers each round)")
		drawMap  = flag.Bool("map", false, "print an ASCII decision map")
		loss     = flag.Float64("loss", 0, "per-receiver transmission loss probability (§II extension)")
		retx     = flag.Int("retx", 1, "blind retransmission count for the lossy medium")
		spoof    = flag.Bool("spoofable", false, "drop the no-address-spoofing assumption (§X what-if)")
		traceRun = flag.Bool("trace", false, "print the commit wavefront round by round (implies -lockstep)")
		frames   = flag.Bool("frames", false, "print bordered per-round wavefront frames (implies -lockstep)")
		traceOut = flag.String("trace-out", "", "write the structured execution trace as JSON Lines to this file (\"-\" = stdout)")
		lockstep = flag.Bool("lockstep", false, "one-hop-per-round delivery (readable round numbers)")
	)
	flag.Parse()

	cfg := rbcast.Config{
		Width: *width, Height: *height, Radius: *radius,
		Value:            byte(*value),
		Concurrent:       *conc,
		LossRate:         *loss,
		Retransmit:       *retx,
		SpoofingPossible: *spoof,
		LockStep:         *lockstep || *traceRun || *frames,
		Trace:            *traceOut != "",
	}
	switch *metric {
	case "linf":
		cfg.Metric = rbcast.MetricLinf
	case "l2":
		cfg.Metric = rbcast.MetricL2
	default:
		fatal("unknown metric %q", *metric)
	}
	switch *proto {
	case "flood":
		cfg.Protocol = rbcast.ProtocolFlood
	case "cpa":
		cfg.Protocol = rbcast.ProtocolCPA
	case "bv4":
		cfg.Protocol = rbcast.ProtocolBV4
	case "bv2":
		cfg.Protocol = rbcast.ProtocolBV2
	default:
		fatal("unknown protocol %q", *proto)
	}
	cfg.T = *tBound
	if cfg.T < 0 {
		switch cfg.Protocol {
		case rbcast.ProtocolCPA:
			cfg.T = rbcast.MaxCPALinf(*radius)
		case rbcast.ProtocolFlood:
			cfg.T = 0
		default:
			cfg.T = rbcast.MaxByzantineLinf(*radius)
		}
	}

	plan := rbcast.FaultPlan{Seed: *seed, Probability: *prob}
	switch *place {
	case "none":
		plan.Placement = rbcast.PlaceNone
	case "band":
		plan.Placement = rbcast.PlaceBand
	case "checkerboard":
		plan.Placement = rbcast.PlaceCheckerboardBand
	case "greedy":
		plan.Placement = rbcast.PlaceGreedyBand
	case "random":
		plan.Placement = rbcast.PlaceRandomBounded
	case "percolation":
		plan.Placement = rbcast.PlacePercolation
	default:
		fatal("unknown placement %q", *place)
	}
	switch *strategy {
	case "crash":
		plan.Strategy = rbcast.StrategyCrash
	case "silent":
		plan.Strategy = rbcast.StrategySilent
	case "liar":
		plan.Strategy = rbcast.StrategyLiar
	case "forger":
		plan.Strategy = rbcast.StrategyForger
	case "spoofer":
		plan.Strategy = rbcast.StrategySpoofer
	default:
		fatal("unknown strategy %q", *strategy)
	}

	res, err := rbcast.Run(cfg, plan)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("protocol=%s %dx%d r=%d t=%d faults=%d (max %d per nbd)\n",
		cfg.Protocol, *width, *height, *radius, cfg.T, res.Faults, res.MaxFaultsPerNbd)
	fmt.Printf("rounds=%d broadcasts=%d deliveries=%d quiesced=%v\n",
		res.Rounds, res.Broadcasts, res.Deliveries, res.Quiesced)
	fmt.Printf("honest=%d correct=%d wrong=%d undecided=%d → reliable broadcast: %v (safe: %v)\n",
		res.Honest, res.Correct, res.Wrong, res.Undecided, res.AllCorrect(), res.Safe())

	if *drawMap {
		fmt.Print(renderRound(cfg, res, -1))
	}
	if *traceRun {
		last := 0
		for _, d := range res.Decisions {
			if d.Decided && d.Round > last {
				last = d.Round
			}
		}
		for round := 0; round <= last; round++ {
			fmt.Printf("round %d:\n%s\n", round, renderRound(cfg, res, round))
		}
	}
	if *frames {
		out, err := renderFrames(cfg, res)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(out)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res.Trace); err != nil {
			fatal("%v", err)
		}
	}
}

// renderFrames draws the internal/trace bordered frame sequence for the
// finished run, reconstructing the engine-level result the renderer wants
// from the public decision map.
func renderFrames(cfg rbcast.Config, res rbcast.Result) (string, error) {
	m := grid.Linf
	if cfg.Metric == rbcast.MetricL2 {
		m = grid.L2
	}
	net := topology.MustNew(grid.Torus{W: cfg.Width, H: cfg.Height}, m, cfg.Radius)
	sr := sim.Result{
		Decided:      make(map[topology.NodeID]byte, len(res.Decisions)),
		DecidedRound: make(map[topology.NodeID]int, len(res.Decisions)),
	}
	for n, d := range res.Decisions {
		if !d.Decided {
			continue
		}
		id := net.IDOf(grid.C(n.X, n.Y))
		sr.Decided[id] = d.Value
		sr.DecidedRound[id] = d.Round
	}
	faulty := make([]topology.NodeID, 0, len(res.Faulty))
	for _, n := range res.Faulty {
		faulty = append(faulty, net.IDOf(grid.C(n.X, n.Y)))
	}
	fs, err := trace.Frames(trace.Config{
		Net:    net,
		Result: sr,
		Source: net.IDOf(grid.C(cfg.SourceX, cfg.SourceY)),
		Value:  cfg.Value,
		Faulty: faulty,
	})
	if err != nil {
		return "", err
	}
	return trace.RenderAll(fs), nil
}

// writeTrace dumps the structured trace as JSON Lines.
func writeTrace(path string, events []rbcast.TraceEvent) error {
	if path == "-" {
		return rbcast.EncodeTrace(os.Stdout, events)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rbcast.EncodeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderRound draws the decision map as of the given round (-1 = final).
func renderRound(cfg rbcast.Config, res rbcast.Result, round int) string {
	faulty := make(map[rbcast.Node]bool, len(res.Faulty))
	for _, n := range res.Faulty {
		faulty[n] = true
	}
	var b strings.Builder
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			n := rbcast.Node{X: x, Y: y}
			d := res.Decisions[n]
			visible := d.Decided && (round < 0 || d.Round <= round)
			switch {
			case faulty[n]:
				b.WriteByte('F')
			case !visible:
				b.WriteByte('.')
			case d.Value == cfg.Value:
				b.WriteByte('#')
			default:
				b.WriteByte('X')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fatal prints an error and exits.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "broadcast-sim: "+format+"\n", args...)
	os.Exit(1)
}
