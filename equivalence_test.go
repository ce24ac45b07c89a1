package rbcast_test

import (
	"bufio"
	"os"
	"strings"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// TestScenarioResultsMatchGolden pins every canonical scenario's Result
// fingerprint against testdata/results.golden, which was generated from the
// pre-optimization seed engines. Any hot-path change that alters a single
// byte of any Result — a reordered delivery, a different round count, a
// flipped decision — fails here. Regenerate the golden file (cmd/gengolden)
// only for a deliberate semantic change.
func TestScenarioResultsMatchGolden(t *testing.T) {
	want := loadGoldenFile(t, "testdata/results.golden")
	seen := make(map[string]bool, len(want))
	for _, sc := range scenarios.Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := rbcast.Run(sc.Config, sc.Plan)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			hash, err := scenarios.ResultHash(res)
			if err != nil {
				t.Fatalf("ResultHash: %v", err)
			}
			w, ok := want[sc.Name]
			if !ok {
				t.Fatalf("scenario missing from golden file; run `go run ./cmd/gengolden > testdata/results.golden` and review the diff")
			}
			if hash != w {
				t.Errorf("result hash %s, golden %s — engine output diverged from the seed", hash, w)
			}
		})
		seen[sc.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("golden entry %q has no scenario — matrix and golden file drifted", name)
		}
	}
}

// TestEngineEquivalenceSweep runs every protocol under a grid of fault
// plans on both engines — the sequential engine in lock-step mode and the
// concurrent engine's parallel workers — and requires byte-identical
// Results. The two engines share no scheduling code, so agreement here is
// strong evidence that the deterministic delivery order is real and that
// neither engine's hot-path optimizations changed semantics.
func TestEngineEquivalenceSweep(t *testing.T) {
	type variant struct {
		name string
		cfg  rbcast.Config
		plan rbcast.FaultPlan
	}
	var sweep []variant
	add := func(name string, cfg rbcast.Config, plan rbcast.FaultPlan) {
		sweep = append(sweep, variant{name: name, cfg: cfg, plan: plan})
	}

	flood := rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}
	add("flood/clean", flood, rbcast.FaultPlan{})
	add("flood/crash2", flood, rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2})
	add("flood/crash0", flood, rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 0})

	cpa := rbcast.Config{Width: 24, Height: 14, Radius: 2, Protocol: rbcast.ProtocolCPA, T: 2, Value: 1}
	add("cpa/silent", cpa, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent})
	add("cpa/liar", cpa, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyLiar})

	bv4 := rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 1, Value: 1}
	add("bv4/clean", bv4, rbcast.FaultPlan{})
	add("bv4/silent", bv4, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent})
	add("bv4/forger", bv4, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger})

	bv2 := rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV2, T: 1, Value: 1}
	add("bv2/silent", bv2, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent})
	add("bv2/liar", bv2, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyLiar})

	bracha := rbcast.Config{Width: 5, Height: 5, Radius: 2, Protocol: rbcast.ProtocolBracha, T: 8, Value: 1}
	add("bracha/clean", bracha, rbcast.FaultPlan{})
	add("bracha/silent", bracha, rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 8, Seed: 3})
	add("bracha/equivocator", bracha, rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategyEquivocator, Count: 6, Seed: 9})

	brachaAuth := bracha
	brachaAuth.Protocol = rbcast.ProtocolBrachaAuth
	add("bracha-auth/silent", brachaAuth, rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 8, Seed: 3})
	add("bracha-auth/equivocator", brachaAuth, rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategyEquivocator, Count: 6, Seed: 9})

	for _, v := range sweep {
		v := v
		t.Run(v.name, func(t *testing.T) {
			seq := v.cfg
			seq.LockStep = true
			conc := v.cfg
			conc.Concurrent = true

			sres, err := rbcast.Run(seq, v.plan)
			if err != nil {
				t.Fatalf("sequential lock-step run: %v", err)
			}
			cres, err := rbcast.Run(conc, v.plan)
			if err != nil {
				t.Fatalf("concurrent run: %v", err)
			}
			shash, err := scenarios.ResultHash(sres)
			if err != nil {
				t.Fatal(err)
			}
			chash, err := scenarios.ResultHash(cres)
			if err != nil {
				t.Fatal(err)
			}
			if shash != chash {
				t.Errorf("engines disagree: sequential %s, concurrent %s (rounds %d vs %d, correct %d vs %d)",
					shash, chash, sres.Rounds, cres.Rounds, sres.Correct, cres.Correct)
			}
		})
	}
}

// loadGoldenFile parses testdata/results.golden ("name<TAB>hash" lines).
func loadGoldenFile(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open golden file: %v", err)
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
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
