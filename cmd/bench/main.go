// Command bench runs the canonical scenario matrix (internal/scenarios)
// as Go benchmarks and emits a machine-readable report. It is the
// reproducible performance baseline for the engine hot paths: scenarios
// cover every protocol at, below and above its fault threshold, both
// engines, and the lossy medium.
//
// Modes:
//
//	bench                       # full run → BENCH_3.json
//	bench -smoke                # one run per scenario, golden-hash check only
//	bench -sweep                # sweep workload: RunSweepJobs vs scalar runs, gated ≥2x
//
// The -smoke and -sweep modes are wired into `make verify`. The full run
// reports; it gates nothing. Timing (ns_op) is machine-dependent and
// reported for information. The allocation gate is the root test
// TestAllocBaseline, which compares every scenario's allocations per run
// with allocs_op in testdata/bench_baseline.json (deterministic for a
// fixed scenario matrix and Go version) on every push.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/pool"
	"repro/internal/scenarios"
)

// report is the BENCH_*.json schema.
type report struct {
	// Schema identifies the report format.
	Schema string `json:"schema"`
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// Scenarios holds one entry per canonical scenario, in matrix order.
	Scenarios []scenarioReport `json:"scenarios"`
}

// scenarioReport is one scenario's measured numbers.
type scenarioReport struct {
	// Name is the canonical scenario name (protocol/variant/geometry).
	Name string `json:"name"`
	// NsOp is wall time per full run (machine-dependent).
	NsOp int64 `json:"ns_op"`
	// AllocsOp is heap allocations per full run.
	AllocsOp int64 `json:"allocs_op"`
	// BytesOp is heap bytes per full run.
	BytesOp int64 `json:"bytes_op"`
	// Rounds is the number of engine rounds the scenario executes.
	Rounds int `json:"rounds"`
	// AllocsPerRound is AllocsOp / max(Rounds, 1).
	AllocsPerRound float64 `json:"allocs_per_round"`
	// AllCorrect reports whether every honest node committed the source
	// value (expected false for above-threshold scenarios).
	AllCorrect bool `json:"all_correct"`
	// Hash is the scenario's result fingerprint (see internal/scenarios).
	Hash string `json:"hash"`
}

func main() {
	out := flag.String("out", "BENCH_3.json", "output path for the JSON report (\"-\" = stdout)")
	smoke := flag.Bool("smoke", false, "run each scenario once and only verify golden hashes")
	golden := flag.String("golden", "testdata/results.golden", "golden hash file for -smoke")
	sweep := flag.Bool("sweep", false, "run the sweep workload: RunSweepJobs vs scalar runs on a crash-round grid")
	minSpeedup := flag.Float64("min-speedup", 2, "minimum node-round (or wall-clock) ratio the sweep workload must achieve")
	flag.Parse()

	if *smoke {
		if err := runSmoke(*golden); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *sweep {
		if err := runSweepBench(*minSpeedup); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runFull()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runSmoke executes every scenario once and checks its result fingerprint
// against the committed golden file — a fast correctness gate for `make
// verify` that exercises the exact code paths the full benchmark times.
func runSmoke(goldenPath string) error {
	want, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, sc := range scenarios.Matrix() {
		res, err := rbcast.Run(sc.Config, sc.Plan)
		if err != nil {
			return fmt.Errorf("%s: %v", sc.Name, err)
		}
		hash, err := scenarios.ResultHash(res)
		if err != nil {
			return fmt.Errorf("%s: %v", sc.Name, err)
		}
		w, ok := want[sc.Name]
		switch {
		case !ok:
			fmt.Printf("?? %s (not in golden file)\n", sc.Name)
			bad++
		case w != hash:
			fmt.Printf("FAIL %s: hash %s, golden %s\n", sc.Name, hash[:12], w[:12])
			bad++
		default:
			fmt.Printf("ok   %s\n", sc.Name)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d scenario(s) diverge from testdata/results.golden", bad)
	}
	return nil
}

// sweepWorkloads are the grids the -sweep mode measures: crash-round
// sweeps with a dead threshold axis, the shape the incremental engine is
// built for, across both cloneable protocols.
func sweepWorkloads() []struct {
	name string
	spec rbcast.SweepSpec
} {
	crashRounds := make([]int, 24)
	for i := range crashRounds {
		crashRounds[i] = i + 1
	}
	return []struct {
		name string
		spec rbcast.SweepSpec
	}{
		{"flood/40x30", rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}, CrashRounds: crashRounds},
		}},
		{"cpa/32x24", rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 32, Height: 24, Radius: 2, Protocol: rbcast.ProtocolCPA, T: 2, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Seeds: []int64{1, 2}, CrashRounds: crashRounds[:16]},
		}},
	}
}

// runSweepBench measures the incremental sweep engine against the scalar
// reference — an independent rbcast.Run per element over the same worker
// pool — on the same grids: per-element results must match exactly, and
// the simulated node-round reduction (or, failing that, wall clock) must
// reach minSpeedup. This is the performance gate for the sweep engine.
func runSweepBench(minSpeedup float64) error {
	for _, wl := range sweepWorkloads() {
		jobs, err := wl.spec.Elements()
		if err != nil {
			return fmt.Errorf("%s: %v", wl.name, err)
		}
		scalarStart := time.Now()
		scalar := make([]rbcast.BatchResult, len(jobs))
		pool.Run(0, len(jobs), func(i int) {
			res, err := rbcast.Run(jobs[i].Config, jobs[i].Plan)
			scalar[i] = rbcast.BatchResult{Result: res, Err: err}
		})
		scalarWall := time.Since(scalarStart)
		sweepStart := time.Now()
		swept, stats := rbcast.RunSweepJobs(jobs, rbcast.BatchOptions{})
		sweepWall := time.Since(sweepStart)
		for i := range jobs {
			if scalar[i].Err != nil || swept[i].Err != nil {
				return fmt.Errorf("%s[%d]: scalar err %v, sweep err %v", wl.name, i, scalar[i].Err, swept[i].Err)
			}
			bh, err := scenarios.ResultHash(scalar[i].Result)
			if err != nil {
				return fmt.Errorf("%s[%d]: %v", wl.name, i, err)
			}
			sh, err := scenarios.ResultHash(swept[i].Result)
			if err != nil {
				return fmt.Errorf("%s[%d]: %v", wl.name, i, err)
			}
			if bh != sh {
				return fmt.Errorf("%s[%d]: sweep result %s diverges from scalar %s", wl.name, i, sh[:12], bh[:12])
			}
		}
		nodeRatio := float64(stats.ScalarNodeRounds) / float64(max(stats.NodeRounds, 1))
		wallRatio := float64(scalarWall) / float64(max(int64(sweepWall), 1))
		fmt.Printf("%-14s %3d elements  %4d sims  %3d forks  node-rounds %d vs %d (%.2fx)  wall %v vs %v (%.2fx)\n",
			wl.name, stats.Elements, stats.Simulations, stats.Forks,
			stats.NodeRounds, stats.ScalarNodeRounds, nodeRatio,
			sweepWall.Round(time.Millisecond), scalarWall.Round(time.Millisecond), wallRatio)
		if nodeRatio < minSpeedup && wallRatio < minSpeedup {
			return fmt.Errorf("%s: node-round ratio %.2fx and wall ratio %.2fx both below the %.1fx gate",
				wl.name, nodeRatio, wallRatio, minSpeedup)
		}
	}
	return nil
}

// runFull benchmarks every scenario and assembles the report.
func runFull() (report, error) {
	rep := report{Schema: "rbcast-bench/1", Go: runtime.Version()}
	for _, sc := range scenarios.Matrix() {
		sc := sc
		// One untimed run for the scenario's semantic columns.
		res, err := rbcast.Run(sc.Config, sc.Plan)
		if err != nil {
			return rep, fmt.Errorf("%s: %v", sc.Name, err)
		}
		hash, err := scenarios.ResultHash(res)
		if err != nil {
			return rep, fmt.Errorf("%s: %v", sc.Name, err)
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rbcast.Run(sc.Config, sc.Plan); err != nil {
					b.Fatal(err)
				}
			}
		})
		rounds := res.Rounds
		if rounds < 1 {
			rounds = 1
		}
		sr := scenarioReport{
			Name:           sc.Name,
			NsOp:           br.NsPerOp(),
			AllocsOp:       br.AllocsPerOp(),
			BytesOp:        br.AllocedBytesPerOp(),
			Rounds:         res.Rounds,
			AllocsPerRound: float64(br.AllocsPerOp()) / float64(rounds),
			AllCorrect:     res.AllCorrect(),
			Hash:           hash,
		}
		rep.Scenarios = append(rep.Scenarios, sr)
		fmt.Fprintf(os.Stderr, "%-24s %10d ns/op %8d allocs/op %10d B/op\n",
			sc.Name, sr.NsOp, sr.AllocsOp, sr.BytesOp)
	}
	return rep, nil
}

// writeReport marshals the report to the output path.
func writeReport(rep report, out string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// loadGolden parses a "name<TAB>hash" golden file.
func loadGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, hash, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[name] = hash
	}
	return out, sc.Err()
}
