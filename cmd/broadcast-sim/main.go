// Command broadcast-sim runs one reliable-broadcast scenario on a torus
// radio network and prints the outcome, optionally with an ASCII map of the
// per-node decisions ('#' committed correctly, 'X' committed wrongly,
// '.' undecided, 'F' faulty). -frames renders the bordered per-round
// wavefront frames; -trace-out dumps the structured execution trace as
// JSON Lines ("-" for stdout), byte-identical to rbcastd's
// GET /v1/jobs/{id}/trace for the same scenario.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "broadcast-sim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the scenario and writes the report to stdout.
// -metric, -protocol and -strategy take the wire names of rbcast's
// encoding (encode.go).
func run(args []string, stdout, stderr io.Writer) error {
	var cfg rbcast.Config
	var plan rbcast.FaultPlan
	fs := flag.NewFlagSet("broadcast-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&cfg.Width, "width", 16, "torus width")
	fs.IntVar(&cfg.Height, "height", 10, "torus height")
	fs.IntVar(&cfg.Radius, "radius", 1, "transmission radius r")
	fs.TextVar(&cfg.Metric, "metric", rbcast.MetricLinf, "distance metric: linf or l2")
	fs.TextVar(&cfg.Protocol, "protocol", rbcast.ProtocolBV4, "protocol: flood, cpa, bv4, bv2, bracha, bracha-auth")
	fs.IntVar(&cfg.T, "t", -1, "per-neighborhood fault bound (default: protocol's max for r)")
	value := fs.Int("value", 1, "source value (0 or 1)")
	place := fs.String("faults", "none", "placement: none, band, checkerboard, greedy, random, percolation")
	fs.TextVar(&plan.Strategy, "strategy", rbcast.StrategyCrash, "fault behaviour: crash, silent, liar, forger, spoofer, equivocator")
	fs.Float64Var(&plan.Probability, "p", 0.2, "percolation failure probability")
	fs.Int64Var(&plan.Seed, "seed", 1, "seed for randomized placements")
	fs.BoolVar(&cfg.Concurrent, "concurrent", false, "use the concurrent engine (parallel workers each round)")
	drawMap := fs.Bool("map", false, "print an ASCII decision map")
	fs.Float64Var(&cfg.LossRate, "loss", 0, "per-receiver transmission loss probability (§II extension)")
	fs.IntVar(&cfg.Retransmit, "retx", 1, "blind retransmission count for the lossy medium")
	fs.BoolVar(&cfg.SpoofingPossible, "spoofable", false, "drop the no-address-spoofing assumption (§X what-if)")
	traceRun := fs.Bool("trace", false, "print the commit wavefront round by round (implies -lockstep)")
	frames := fs.Bool("frames", false, "print bordered per-round wavefront frames (implies -lockstep)")
	traceOut := fs.String("trace-out", "", "write the structured execution trace as JSON Lines to this file (\"-\" = stdout)")
	fs.BoolVar(&cfg.LockStep, "lockstep", false, "one-hop-per-round delivery (readable round numbers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Value = byte(*value)
	cfg.LockStep = cfg.LockStep || *traceRun || *frames
	cfg.Trace = *traceOut != ""
	if cfg.T < 0 {
		switch cfg.Protocol {
		case rbcast.ProtocolCPA:
			cfg.T = rbcast.MaxCPALinf(cfg.Radius)
		case rbcast.ProtocolFlood:
			cfg.T = 0
		default:
			cfg.T = rbcast.MaxByzantineLinf(cfg.Radius)
		}
	}
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
		return fmt.Errorf("unknown placement %q", *place)
	}

	res, err := rbcast.Run(cfg, plan)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "protocol=%s %dx%d r=%d t=%d faults=%d (max %d per nbd)\n",
		cfg.Protocol, cfg.Width, cfg.Height, cfg.Radius, cfg.T, res.Faults, res.MaxFaultsPerNbd)
	fmt.Fprintf(stdout, "rounds=%d broadcasts=%d deliveries=%d quiesced=%v\n",
		res.Rounds, res.Broadcasts, res.Deliveries, res.Quiesced)
	fmt.Fprintf(stdout, "honest=%d correct=%d wrong=%d undecided=%d → reliable broadcast: %v (safe: %v)\n",
		res.Honest, res.Correct, res.Wrong, res.Undecided, res.AllCorrect(), res.Safe())

	if *drawMap {
		fmt.Fprint(stdout, renderRound(cfg, res, -1))
	}
	if *traceRun {
		last := 0
		for _, d := range res.Decisions {
			if d.Decided && d.Round > last {
				last = d.Round
			}
		}
		for round := 0; round <= last; round++ {
			fmt.Fprintf(stdout, "round %d:\n%s\n", round, renderRound(cfg, res, round))
		}
	}
	if *frames {
		out, err := renderFrames(cfg, res)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
	}
	if *traceOut != "" {
		return writeTrace(*traceOut, stdout, res.Trace)
	}
	return nil
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

// writeTrace dumps the structured trace as JSON Lines to path, or to
// stdout for "-".
func writeTrace(path string, stdout io.Writer, events []rbcast.TraceEvent) error {
	if path == "-" {
		return rbcast.EncodeTrace(stdout, events)
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
