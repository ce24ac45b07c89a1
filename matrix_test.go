package rbcast_test

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation changes allocation counts.
var raceEnabled bool

// TestTraceFoldsIntoMetrics pins that one collector serves both views of a
// run: on every matrix scenario, counting the traced events per round
// gives exactly Metrics.PerRound, and tracing leaves Metrics unchanged. A
// broadcast event stands for the Retransmit transmissions it counts.
// bv4/exact-at is skipped for time; it uses the same tap sites as bv4/at.
func TestTraceFoldsIntoMetrics(t *testing.T) {
	for _, sc := range scenarios.Matrix() {
		if sc.Name == "bv4/exact-at/16x10r1" {
			continue
		}
		cfg := sc.Config
		cfg.Trace = true
		traced, err := rbcast.Run(cfg, sc.Plan)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		untraced, err := rbcast.Run(sc.Config, sc.Plan)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		var rows []rbcast.RoundMetrics
		row := func(round int) *rbcast.RoundMetrics {
			for len(rows) <= round {
				rows = append(rows, rbcast.RoundMetrics{})
			}
			return &rows[round]
		}
		for _, ev := range traced.Trace {
			switch ev.Kind {
			case rbcast.EventBroadcast:
				row(ev.Round).Broadcasts += max(cfg.Retransmit, 1)
			case rbcast.EventDelivery:
				row(ev.Round).Deliveries++
			case rbcast.EventEvidenceEval:
				row(ev.Round).EvidenceEvals++
			case rbcast.EventCommit:
				row(ev.Round).Commits++
			}
		}
		if !reflect.DeepEqual(rows, traced.Metrics.PerRound) {
			t.Errorf("%s: trace counts per round %v, Metrics.PerRound %v", sc.Name, rows, traced.Metrics.PerRound)
		}
		traced.Metrics.Wall, untraced.Metrics.Wall = 0, 0
		if !reflect.DeepEqual(traced.Metrics, untraced.Metrics) {
			t.Errorf("%s: tracing changed Metrics: %+v, untraced %+v", sc.Name, traced.Metrics, untraced.Metrics)
		}
	}
}

// allocBaseline is testdata/bench_baseline.json: allocations per rbcast.Run
// of every matrix scenario, measured by the toolchain Go names.
type allocBaseline struct {
	Go        string           `json:"go"`
	Scenarios []scenarioAllocs `json:"scenarios"`
}

type scenarioAllocs struct {
	Name     string `json:"name"`
	AllocsOp int64  `json:"allocs_op"`
}

// TestAllocBaseline gates every matrix scenario's allocations per
// rbcast.Run at its allocs_op in testdata/bench_baseline.json plus 10%.
// Allocation counts are deterministic for a given Go version, so the gate
// runs on every push. A scenario missing on either side fails: one the
// baseline does not list would go ungated, so adding a scenario means
// regenerating the baseline with -update.
func TestAllocBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const path = "testdata/bench_baseline.json"
	var base allocBaseline
	if *rbcast.UpdateGolden {
		// The baseline is BenchmarkMatrix's allocs/op, an average over b.N
		// runs that spreads the first run's one-time allocations; the
		// gate's single measured run after a warm-up reads at or just
		// below it.
		base.Go = runtime.Version()
		for _, sc := range scenarios.Matrix() {
			allocs := testing.Benchmark(benchScenario(sc)).AllocsPerOp()
			base.Scenarios = append(base.Scenarios, scenarioAllocs{sc.Name, allocs})
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	budgets := make(map[string]int64, len(base.Scenarios))
	for _, b := range base.Scenarios {
		budgets[b.Name] = b.AllocsOp
	}
	for _, sc := range scenarios.Matrix() {
		want, ok := budgets[sc.Name]
		if !ok {
			t.Errorf("%s: not in the baseline", sc.Name)
			continue
		}
		delete(budgets, sc.Name)
		got := testing.AllocsPerRun(1, func() {
			if _, err := rbcast.Run(sc.Config, sc.Plan); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run, baseline %d", sc.Name, got, want)
		if got > 1.1*float64(want) {
			t.Errorf("%s: %.0f allocations per run, baseline %d (+%.1f%%, over the 10%% slack)",
				sc.Name, got, want, 100*(got-float64(want))/float64(want))
		}
	}
	for name := range budgets {
		t.Errorf("%s: in the baseline but not in the matrix", name)
	}
}

// BenchmarkMatrix times rbcast.Run on every matrix scenario, one
// sub-benchmark each. It reports and gates nothing; TestAllocBaseline
// gates the allocations.
func BenchmarkMatrix(b *testing.B) {
	for _, sc := range scenarios.Matrix() {
		b.Run(sc.Name, benchScenario(sc))
	}
}

// benchScenario benchmarks rbcast.Run on one scenario.
func benchScenario(sc scenarios.Scenario) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rbcast.Run(sc.Config, sc.Plan); err != nil {
				b.Fatal(err)
			}
		}
	}
}
