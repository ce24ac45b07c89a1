package rbcast

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// designated ("earmarked") evidence mode vs exhaustive evaluation, the
// TDMA-frame vs lock-step delivery semantics, and the cell vs sequential
// transmission schedules.
import (
	"testing"

	"repro/internal/grid"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkAblationBV4Designated measures the 4-hop protocol with the
// constructive-proof family tables (the default).
func BenchmarkAblationBV4Designated(b *testing.B) {
	benchBV4Mode(b, false)
}

// BenchmarkAblationBV4Exact measures the same scenario with exhaustive
// evidence evaluation and unrestricted relaying — the paper's protocol
// without the earmarking state reduction.
func BenchmarkAblationBV4Exact(b *testing.B) {
	benchBV4Mode(b, true)
}

func benchBV4Mode(b *testing.B, exact bool) {
	b.Helper()
	r := 1
	cfg := Config{
		Width: 12, Height: 12, Radius: r,
		Protocol: ProtocolBV4, T: MaxByzantineLinf(r), Value: 1,
		ExactEvidence: exact,
	}
	plan := FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyForger, Seed: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCorrect() {
			b.Fatal("BV4 failed below threshold")
		}
	}
}

// BenchmarkAblationModeFrame measures the TDMA-frame engine semantics
// (intra-frame cascade: fewer rounds, same decisions).
func BenchmarkAblationModeFrame(b *testing.B) {
	benchMode(b, sim.ModeFrame)
}

// BenchmarkAblationModeNextRound measures strict lock-step delivery.
func BenchmarkAblationModeNextRound(b *testing.B) {
	benchMode(b, sim.ModeNextRound)
}

func benchMode(b *testing.B, mode sim.DeliveryMode) {
	b.Helper()
	net, err := topology.New(grid.Torus{W: 24, H: 24}, grid.Linf, 2)
	if err != nil {
		b.Fatal(err)
	}
	src := net.IDOf(grid.C(0, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := protocol.Run(protocol.RunConfig{
			Kind:   protocol.CPA,
			Params: protocol.Params{Net: net, Source: src, Value: 1, T: 0},
			Mode:   mode,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !out.AllCorrect() {
			b.Fatal("CPA failed fault-free")
		}
	}
}

// BenchmarkAblationCellSchedule measures the (2r+1)²-slot spatial-reuse
// schedule on a divisible torus.
func BenchmarkAblationCellSchedule(b *testing.B) {
	benchSchedule(b, true)
}

// BenchmarkAblationSequentialSchedule measures the one-node-per-slot
// fallback schedule on the same torus.
func BenchmarkAblationSequentialSchedule(b *testing.B) {
	benchSchedule(b, false)
}

func benchSchedule(b *testing.B, cell bool) {
	b.Helper()
	net, err := topology.New(grid.Torus{W: 25, H: 25}, grid.Linf, 2)
	if err != nil {
		b.Fatal(err)
	}
	var sched topology.Schedule
	if cell {
		sched, err = topology.NewCellSchedule(net)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		sched = topology.NewSequentialSchedule(net)
	}
	src := net.IDOf(grid.C(0, 0))
	factory, err := protocol.NewFactory(protocol.Flood, protocol.Params{
		Net: net, Source: src, Value: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{Net: net, Factory: factory, Schedule: sched})
		if err != nil {
			b.Fatal(err)
		}
		if res.Commits() != net.Size() {
			b.Fatal("flood incomplete")
		}
	}
}
