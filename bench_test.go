package rbcast_test

// The benchmark harness regenerates every reproduced paper artifact (one
// benchmark per experiment id from DESIGN.md) and additionally measures the
// core machinery: the simulation engines, the evidence packing and the
// explicit path constructions. Run with:
//
//	go test -bench=. -benchmem
import (
	"testing"

	rbcast "repro"
	"repro/internal/experiments"
)

// benchExperiment runs one registered experiment per iteration and fails
// the benchmark if the reproduction stops matching the paper.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !rep.Pass {
			b.Fatalf("%s regression:\n%s", id, rep.Format())
		}
	}
}

func BenchmarkE01TableI(b *testing.B)          { benchExperiment(b, "E01") }
func BenchmarkE02RegionM(b *testing.B)         { benchExperiment(b, "E02") }
func BenchmarkE03RegionR(b *testing.B)         { benchExperiment(b, "E03") }
func BenchmarkE04Decompose(b *testing.B)       { benchExperiment(b, "E04") }
func BenchmarkE05FamiliesU(b *testing.B)       { benchExperiment(b, "E05") }
func BenchmarkE06FamiliesS1(b *testing.B)      { benchExperiment(b, "E06") }
func BenchmarkE07ArbitraryP(b *testing.B)      { benchExperiment(b, "E07") }
func BenchmarkE08Thm1Sim(b *testing.B)         { benchExperiment(b, "E08") }
func BenchmarkE09Thm1Impossible(b *testing.B)  { benchExperiment(b, "E09") }
func BenchmarkE10CrashImpossible(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11CrashPossible(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12CPA(b *testing.B)             { benchExperiment(b, "E12") }
func BenchmarkE13TwoHop(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14L2Families(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15L2Impossible(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16L2Crash(b *testing.B)         { benchExperiment(b, "E16") }
func BenchmarkE17Percolation(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18GraphCond(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19Safety(b *testing.B)          { benchExperiment(b, "E19") }
func BenchmarkE20Engines(b *testing.B)         { benchExperiment(b, "E20") }
func BenchmarkE21CPATightness(b *testing.B)    { benchExperiment(b, "E21") }
func BenchmarkE22Spoofing(b *testing.B)        { benchExperiment(b, "E22") }
func BenchmarkE23LossyMedium(b *testing.B)     { benchExperiment(b, "E23") }
func BenchmarkE24Analyzer(b *testing.B)        { benchExperiment(b, "E24") }
func BenchmarkE25MsgComplexity(b *testing.B)   { benchExperiment(b, "E25") }
func BenchmarkE26Agreement(b *testing.B)       { benchExperiment(b, "E26") }
func BenchmarkE27QuorumSweep(b *testing.B)     { benchExperiment(b, "E27") }
func BenchmarkE28QuorumAuth(b *testing.B)      { benchExperiment(b, "E28") }

// BenchmarkFloodSequential measures the deterministic engine on a fault-free
// flood: the raw cost of one full broadcast wave.
func BenchmarkFloodSequential(b *testing.B) {
	cfg := rbcast.Config{Width: 32, Height: 32, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rbcast.Run(cfg, rbcast.FaultPlan{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCorrect() {
			b.Fatal("flood failed")
		}
	}
}

// BenchmarkFloodConcurrent measures the concurrent engine, whose workers
// process each round's deliveries in parallel, on the same workload.
func BenchmarkFloodConcurrent(b *testing.B) {
	cfg := rbcast.Config{Width: 32, Height: 32, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1, Concurrent: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rbcast.Run(cfg, rbcast.FaultPlan{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCorrect() {
			b.Fatal("flood failed")
		}
	}
}

// BenchmarkCPAThreshold measures the simple protocol at its Theorem 6 bound.
func BenchmarkCPAThreshold(b *testing.B) {
	r := 2
	cfg := rbcast.Config{
		Width: 24, Height: 14, Radius: r,
		Protocol: rbcast.ProtocolCPA, T: rbcast.MaxCPALinf(r), Value: 1,
	}
	plan := rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rbcast.Run(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCorrect() {
			b.Fatal("CPA failed at its bound")
		}
	}
}

// BenchmarkBV4Threshold measures the full indirect-report protocol at the
// exact threshold with forger adversaries (designated evidence mode).
func BenchmarkBV4Threshold(b *testing.B) {
	r := 1
	cfg := rbcast.Config{
		Width: 16, Height: 10, Radius: r,
		Protocol: rbcast.ProtocolBV4, T: rbcast.MaxByzantineLinf(r), Value: 1,
	}
	plan := rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rbcast.Run(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCorrect() {
			b.Fatal("BV4 failed at its threshold")
		}
	}
}

// BenchmarkBV2Threshold measures the two-hop protocol at the threshold.
func BenchmarkBV2Threshold(b *testing.B) {
	r := 1
	cfg := rbcast.Config{
		Width: 16, Height: 10, Radius: r,
		Protocol: rbcast.ProtocolBV2, T: rbcast.MaxByzantineLinf(r), Value: 1,
	}
	plan := rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rbcast.Run(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllCorrect() {
			b.Fatal("BV2 failed at its threshold")
		}
	}
}
