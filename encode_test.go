package rbcast

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// UpdateGolden is the root test binary's one regeneration flag: -update
// rewrites every golden file and baseline under testdata from the current
// code. It is exported for the external rbcast_test files.
var UpdateGolden = flag.Bool("update", false, "rewrite the golden files and baselines under testdata")

func TestEnumTextRoundTrip(t *testing.T) {
	protocols := []Protocol{0, ProtocolFlood, ProtocolCPA, ProtocolBV4, ProtocolBV2, ProtocolBracha, ProtocolBrachaAuth}
	for _, v := range protocols {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("Protocol(%d).MarshalText: %v", v, err)
		}
		var back Protocol
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("Protocol %d round-trips to %d (err %v)", v, back, err)
		}
	}
	topologies := []Topology{0, TopologyTorus, TopologyRGG, TopologyCustom}
	for _, v := range topologies {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("Topology(%d).MarshalText: %v", v, err)
		}
		var back Topology
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("Topology %d round-trips to %d (err %v)", v, back, err)
		}
	}
	metrics := []Metric{0, MetricLinf, MetricL2}
	for _, v := range metrics {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("Metric(%d).MarshalText: %v", v, err)
		}
		var back Metric
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("Metric %d round-trips to %d (err %v)", v, back, err)
		}
	}
	placements := []Placement{0, PlaceNone, PlaceBand, PlaceCheckerboardBand, PlaceGreedyBand, PlaceRandomBounded, PlacePercolation}
	for _, v := range placements {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("Placement(%d).MarshalText: %v", v, err)
		}
		var back Placement
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("Placement %d round-trips to %d (err %v)", v, back, err)
		}
	}
	strategies := []Strategy{0, StrategyCrash, StrategySilent, StrategyLiar, StrategyForger, StrategySpoofer, StrategyEquivocator}
	for _, v := range strategies {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("Strategy(%d).MarshalText: %v", v, err)
		}
		var back Strategy
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("Strategy %d round-trips to %d (err %v)", v, back, err)
		}
	}
}

// TestEnumTextRoundTripExhaustive walks every enum's full range — raw
// values upward until String() falls back to the "Kind(%d)" placeholder —
// and round-trips each through MarshalText/UnmarshalText. Unlike the
// explicit lists above, this discovers new enum values automatically: a
// future constant whose author extends String() but forgets the encoders
// fails here without this test needing an edit. The atLeast floors guard
// the discovery itself — if String() stops covering known values, the
// walk would end early and the floor trips.
func TestEnumTextRoundTripExhaustive(t *testing.T) {
	type enum struct {
		name      string
		atLeast   int
		str       func(int) string
		roundTrip func(int) (int, error)
	}
	enums := []enum{
		{"Protocol", 6,
			func(i int) string { return Protocol(i).String() },
			func(i int) (int, error) {
				text, err := Protocol(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back Protocol
				err = back.UnmarshalText(text)
				return int(back), err
			}},
		{"Topology", 3,
			func(i int) string { return Topology(i).String() },
			func(i int) (int, error) {
				text, err := Topology(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back Topology
				err = back.UnmarshalText(text)
				return int(back), err
			}},
		{"Metric", 2,
			func(i int) string { return Metric(i).String() },
			func(i int) (int, error) {
				text, err := Metric(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back Metric
				err = back.UnmarshalText(text)
				return int(back), err
			}},
		{"Placement", 6,
			func(i int) string { return Placement(i).String() },
			func(i int) (int, error) {
				text, err := Placement(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back Placement
				err = back.UnmarshalText(text)
				return int(back), err
			}},
		{"Strategy", 6,
			func(i int) string { return Strategy(i).String() },
			func(i int) (int, error) {
				text, err := Strategy(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back Strategy
				err = back.UnmarshalText(text)
				return int(back), err
			}},
		{"EventKind", 6,
			func(i int) string { return EventKind(i).String() },
			func(i int) (int, error) {
				text, err := EventKind(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back EventKind
				err = back.UnmarshalText(text)
				return int(back), err
			}},
		{"CommitRule", 7,
			func(i int) string { return CommitRule(i).String() },
			func(i int) (int, error) {
				text, err := CommitRule(i).MarshalText()
				if err != nil {
					return 0, err
				}
				var back CommitRule
				err = back.UnmarshalText(text)
				return int(back), err
			}},
	}
	for _, e := range enums {
		e := e
		t.Run(e.name, func(t *testing.T) {
			count := 0
			for raw := 1; ; raw++ {
				if strings.Contains(e.str(raw), "(") {
					break
				}
				count++
				back, err := e.roundTrip(raw)
				if err != nil {
					t.Errorf("%s value %d (%s) does not round-trip: %v", e.name, raw, e.str(raw), err)
					continue
				}
				if back != raw {
					t.Errorf("%s value %d (%s) round-trips to %d", e.name, raw, e.str(raw), back)
				}
			}
			if count < e.atLeast {
				t.Errorf("discovered only %d %s values, expected at least %d — String() lost coverage", count, e.name, e.atLeast)
			}
			if back, err := e.roundTrip(0); err != nil || back != 0 {
				t.Errorf("%s zero value round-trips to %d (err %v)", e.name, back, err)
			}
		})
	}
}

func TestEnumTextRejectsInvalid(t *testing.T) {
	if _, err := Protocol(99).MarshalText(); err == nil {
		t.Error("invalid protocol must not marshal")
	}
	if _, err := Metric(99).MarshalText(); err == nil {
		t.Error("invalid metric must not marshal")
	}
	var p Protocol
	if err := p.UnmarshalText([]byte("carrier-pigeon")); err == nil {
		t.Error("unknown protocol name must not unmarshal")
	}
	var m Metric
	if err := m.UnmarshalText([]byte("l3")); err == nil {
		t.Error("unknown metric name must not unmarshal")
	}
	if _, err := Topology(99).MarshalText(); err == nil {
		t.Error("invalid topology must not marshal")
	}
	var topo Topology
	if err := topo.UnmarshalText([]byte("hypercube")); err == nil {
		t.Error("unknown topology name must not unmarshal")
	}
	var pl Placement
	if err := pl.UnmarshalText([]byte("everywhere")); err == nil {
		t.Error("unknown placement name must not unmarshal")
	}
	var s Strategy
	if err := s.UnmarshalText([]byte("helpful")); err == nil {
		t.Error("unknown strategy name must not unmarshal")
	}
}

func TestNodeTextRoundTrip(t *testing.T) {
	for _, n := range []Node{{0, 0}, {3, 4}, {-2, 17}} {
		text, err := n.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Node
		if err := back.UnmarshalText(text); err != nil || back != n {
			t.Errorf("node %v round-trips to %v via %q (err %v)", n, back, text, err)
		}
	}
	var n Node
	for _, bad := range []string{"", "3", "3,", ",4", "a,b", "3;4"} {
		if err := n.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("node text %q must not parse", bad)
		}
	}
}

// fullConfig sets every Config field to a non-zero value, so round-trip
// and sensitivity tests cover the whole struct.
func fullConfig() Config {
	return Config{
		Width: 20, Height: 14, Radius: 2,
		Metric: MetricL2, Protocol: ProtocolBV4,
		T: 3, Value: 1, SourceX: 5, SourceY: 6, MaxRounds: 99,
		Concurrent: false, ExactEvidence: true,
		LossRate: 0.25, Retransmit: 3, MediumSeed: 42,
		SpoofingPossible: true, LockStep: true,
	}
}

// fullPlan sets every FaultPlan field to a non-zero value.
func fullPlan() FaultPlan {
	return FaultPlan{
		Placement: PlaceRandomBounded, Strategy: StrategyForger,
		Budget: 2, Count: 5, Probability: 0.125, CrashRound: 3, Seed: 7,
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	for _, cfg := range []Config{{}, fullConfig(), {Width: 16, Height: 10, Radius: 1, Protocol: ProtocolFlood}} {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal %+v: %v", cfg, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != cfg {
			t.Errorf("config round-trip drifted:\n  in  %+v\n  out %+v\n  via %s", cfg, back, data)
		}
	}
	if data, _ := json.Marshal(Config{}); string(data) != "{}" {
		t.Errorf("zero config marshals to %s, want {}", data)
	}
}

func TestFaultPlanJSONRoundTrip(t *testing.T) {
	for _, plan := range []FaultPlan{{}, fullPlan(), {Placement: PlaceGreedyBand, Strategy: StrategySilent, Budget: 2}} {
		data, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("marshal %+v: %v", plan, err)
		}
		var back FaultPlan
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != plan {
			t.Errorf("plan round-trip drifted:\n  in  %+v\n  out %+v\n  via %s", plan, back, data)
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	cfg := Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolBV4, T: MaxByzantineLinf(1), Value: 1}
	plan := FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategyForger}
	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Error("result does not survive a JSON round trip")
	}
	// The encoding must be deterministic — the serving layer relies on
	// byte-identical bodies for identical results.
	again, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Error("result JSON is not byte-deterministic")
	}
}

func TestFingerprintFieldOrderIndependence(t *testing.T) {
	// The same scenario spelled with different JSON key orderings must
	// decode to the same fingerprint.
	a := `{"width":16,"height":10,"radius":1,"protocol":"bv4","t":2,"value":1}`
	b := `{"value":1,"t":2,"protocol":"bv4","radius":1,"height":10,"width":16}`
	var ca, cb Config
	if err := json.Unmarshal([]byte(a), &ca); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &cb); err != nil {
		t.Fatal(err)
	}
	fa := Job{Config: ca}.Fingerprint()
	fb := Job{Config: cb}.Fingerprint()
	if fa != fb {
		t.Errorf("field ordering changed the fingerprint: %s vs %s", fa, fb)
	}
}

func TestFingerprintZeroValueAliases(t *testing.T) {
	base := Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	rgg := Config{Topology: TopologyRGG, Nodes: 32, Protocol: ProtocolFlood, Value: 1}
	negZero := math.Copysign(0, -1)
	aliases := []struct {
		name string
		a, b Job
	}{
		{"metric 0 ≡ linf",
			Job{Config: base},
			Job{Config: func() Config { c := base; c.Metric = MetricLinf; return c }()}},
		{"retransmit 0 ≡ 1",
			Job{Config: base},
			Job{Config: func() Config { c := base; c.Retransmit = 1; return c }()}},
		{"topology 0 ≡ torus",
			Job{Config: base},
			Job{Config: func() Config { c := base; c.Topology = TopologyTorus; return c }()}},
		{"placement 0 ≡ none",
			Job{Config: base},
			Job{Config: base, Plan: FaultPlan{Placement: PlaceNone}}},
		{"strategy 0 ≡ crash",
			Job{Config: base, Plan: FaultPlan{Placement: PlaceBand}},
			Job{Config: base, Plan: FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash}}},
		{"loss_rate -0 ≡ 0",
			Job{Config: base},
			Job{Config: func() Config { c := base; c.LossRate = negZero; return c }()}},
		{"probability -0 ≡ 0",
			Job{Config: base, Plan: FaultPlan{Placement: PlacePercolation}},
			Job{Config: base, Plan: FaultPlan{Placement: PlacePercolation, Probability: negZero}}},
		{"rgg_radius -0 ≡ 0",
			Job{Config: rgg},
			Job{Config: func() Config { c := rgg; c.RGGRadius = negZero; return c }()}},
	}
	for _, tt := range aliases {
		if fa, fb := tt.a.Fingerprint(), tt.b.Fingerprint(); fa != fb {
			t.Errorf("%s: fingerprints differ (%s vs %s)", tt.name, fa, fb)
		}
	}
}

// decodeStrict decodes one value the way rbcastd decodes request bodies:
// unknown fields and trailing data are errors.
func decodeStrict[T any](data []byte) (T, error) {
	var v, zero T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return zero, err
	}
	if dec.More() {
		return zero, errors.New("trailing data after JSON value")
	}
	return v, nil
}

// FuzzJobFingerprint fuzzes the wire surface's identity: any body that
// strictly decodes to a Job keeps its fingerprint through json.Marshal and
// a strict re-decode, and through every documented alias swap.
func FuzzJobFingerprint(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"config":{"width":16,"height":10,"radius":1,"protocol":"bv4","t":2,"value":1},"plan":{"placement":"greedy-band","strategy":"silent"}}`,
		`{"config":{"width":16,"height":10,"radius":1,"metric":"linf","protocol":"flood","value":1,"loss_rate":-0,"retransmit":1,"topology":"torus"},"plan":{"placement":"none","strategy":"crash"}}`,
		`{"config":{"width":12,"height":12,"radius":2,"metric":"l2","protocol":"cpa","t":1,"loss_rate":0.25,"retransmit":3,"medium_seed":9},"plan":{"placement":"percolation","probability":-0,"seed":4}}`,
		`{"config":{"topology":"rgg","nodes":40,"rgg_radius":0.3,"topology_seed":3,"source":2,"protocol":"bracha","t":1,"value":1}}`,
		`{"config":{"topology":"rgg","nodes":8,"rgg_radius":-0,"protocol":"flood"}}`,
		`{"config":{"topology":"custom","graph":{"nodes":4,"edges":[[0,1],[2,1],[3,2]]},"protocol":"bracha-auth","t":1,"trace":true}}`,
		`{"config":{"width":1e1},"plan":{"crash_round":-3,"budget":2,"count":5}}`,
		`{"config":{"WIDTH":16},"plan":{"Strategy":"liar"}}`,
		`{"config":{"width":16}} {}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := decodeStrict[Job](data)
		if err != nil {
			return
		}
		want := j.Fingerprint()
		enc, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("marshal %+v: %v", j, err)
		}
		back, err := decodeStrict[Job](enc)
		if err != nil {
			t.Fatalf("strict re-decode of %s: %v", enc, err)
		}
		if got := back.Fingerprint(); got != want {
			t.Fatalf("re-encoding changed the fingerprint\n  in  %s\n  out %s", data, enc)
		}
		for _, alias := range []struct {
			name  string
			apply func(*Job)
		}{
			{"metric 0 ≡ linf", func(j *Job) { j.Config.Metric = swap(j.Config.Metric, 0, MetricLinf) }},
			{"placement 0 ≡ none", func(j *Job) { j.Plan.Placement = swap(j.Plan.Placement, 0, PlaceNone) }},
			{"strategy 0 ≡ crash", func(j *Job) { j.Plan.Strategy = swap(j.Plan.Strategy, 0, StrategyCrash) }},
			{"retransmit 0 ≡ 1", func(j *Job) { j.Config.Retransmit = swap(j.Config.Retransmit, 0, 1) }},
			{"topology 0 ≡ torus", func(j *Job) { j.Config.Topology = swap(j.Config.Topology, 0, TopologyTorus) }},
			{"loss_rate -0 ≡ 0", func(j *Job) { j.Config.LossRate = flipZero(j.Config.LossRate) }},
			{"probability -0 ≡ 0", func(j *Job) { j.Plan.Probability = flipZero(j.Plan.Probability) }},
			{"rgg_radius -0 ≡ 0", func(j *Job) { j.Config.RGGRadius = flipZero(j.Config.RGGRadius) }},
		} {
			k := j
			alias.apply(&k)
			if got := k.Fingerprint(); got != want {
				t.Fatalf("%s changed the fingerprint of %s", alias.name, data)
			}
		}
	})
}

// swap exchanges the two spellings of an alias pair and leaves any other
// value alone.
func swap[T comparable](v, a, b T) T {
	switch v {
	case a:
		return b
	case b:
		return a
	}
	return v
}

// flipZero turns 0 into -0 and -0 into 0, and leaves any other value alone.
func flipZero(v float64) float64 {
	if v == 0 {
		return -v
	}
	return v
}

func TestFingerprintSingleFieldSensitivity(t *testing.T) {
	base := Job{Config: fullConfig(), Plan: fullPlan()}
	mutations := []struct {
		name   string
		mutate func(*Job)
	}{
		{"width", func(j *Job) { j.Config.Width++ }},
		{"height", func(j *Job) { j.Config.Height++ }},
		{"radius", func(j *Job) { j.Config.Radius++ }},
		{"metric", func(j *Job) { j.Config.Metric = MetricLinf }},
		{"protocol", func(j *Job) { j.Config.Protocol = ProtocolBV2 }},
		{"t", func(j *Job) { j.Config.T++ }},
		{"value", func(j *Job) { j.Config.Value = 0 }},
		{"source_x", func(j *Job) { j.Config.SourceX++ }},
		{"source_y", func(j *Job) { j.Config.SourceY++ }},
		{"max_rounds", func(j *Job) { j.Config.MaxRounds++ }},
		{"concurrent", func(j *Job) { j.Config.Concurrent = true }},
		{"exact_evidence", func(j *Job) { j.Config.ExactEvidence = false }},
		{"loss_rate", func(j *Job) { j.Config.LossRate += 0.1 }},
		{"retransmit", func(j *Job) { j.Config.Retransmit++ }},
		{"medium_seed", func(j *Job) { j.Config.MediumSeed++ }},
		{"spoofing_possible", func(j *Job) { j.Config.SpoofingPossible = false }},
		{"lock_step", func(j *Job) { j.Config.LockStep = false }},
		// Trace stays false in fullConfig so the committed fingerprint
		// goldens stay valid; flipping it must still change the hash (a
		// traced result is a different cacheable artifact).
		{"trace", func(j *Job) { j.Config.Trace = true }},
		// Topology stays zero (torus) in fullConfig for the same reason;
		// switching the family appends the non-torus trailer.
		{"topology", func(j *Job) { j.Config.Topology = TopologyRGG }},
		{"placement", func(j *Job) { j.Plan.Placement = PlacePercolation }},
		{"strategy", func(j *Job) { j.Plan.Strategy = StrategyLiar }},
		{"budget", func(j *Job) { j.Plan.Budget++ }},
		{"count", func(j *Job) { j.Plan.Count++ }},
		{"probability", func(j *Job) { j.Plan.Probability += 0.1 }},
		{"crash_round", func(j *Job) { j.Plan.CrashRound++ }},
		{"seed", func(j *Job) { j.Plan.Seed++ }},
	}
	want := base.Fingerprint()
	seen := map[string]string{want: "base"}
	for _, tt := range mutations {
		j := base
		tt.mutate(&j)
		got := j.Fingerprint()
		if got == want {
			t.Errorf("changing %s did not change the fingerprint", tt.name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("mutations %s and %s collide", tt.name, prev)
		}
		seen[got] = tt.name
	}
}

// TestFingerprintGolden pins fingerprints across process restarts and
// releases: a hash drift here means every persistent cache keyed on
// Fingerprint silently invalidates, so it must be a deliberate,
// version-bumped decision (fingerprintVersion), not an accident.
func TestFingerprintGolden(t *testing.T) {
	jobs := []struct {
		name string
		job  Job
	}{
		{"zero", Job{}},
		{"flood-fault-free", Job{Config: Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1}}},
		{"bv4-greedy-band", Job{
			Config: Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolBV4, T: 2, Value: 1},
			Plan:   FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent},
		}},
		{"everything-set", Job{Config: fullConfig(), Plan: fullPlan()}},
		{"lossy-percolation", Job{
			Config: Config{Width: 24, Height: 24, Radius: 2, Protocol: ProtocolCPA, T: 1, Value: 1, LossRate: 0.5, Retransmit: 4, MediumSeed: 9},
			Plan:   FaultPlan{Placement: PlacePercolation, Probability: 0.01, Seed: 3},
		}},
		{"rgg-flood", Job{
			Config: Config{Topology: TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Protocol: ProtocolFlood, Value: 1},
		}},
		{"custom-cycle", Job{
			Config: Config{Topology: TopologyCustom, Graph: &GraphSpec{Nodes: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}, Protocol: ProtocolCPA, T: 1, Value: 1},
		}},
		// Append-only: new jobs go at the end so earlier golden lines
		// stay byte-identical across regenerations.
		{"bracha-torus-equivocator", Job{
			Config: Config{Width: 5, Height: 5, Radius: 2, Protocol: ProtocolBracha, T: 8, Value: 1},
			Plan:   FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyEquivocator, Count: 6, Seed: 9},
		}},
		{"bracha-auth-rgg", Job{
			Config: Config{Topology: TopologyRGG, Nodes: 32, RGGRadius: 0.3, TopologySeed: 2, Protocol: ProtocolBrachaAuth, T: 2, Value: 1, MaxRounds: 128},
			Plan:   FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySilent, Count: 2, Seed: 4},
		}},
	}
	var b strings.Builder
	for _, tt := range jobs {
		fmt.Fprintf(&b, "%s %s\n", tt.job.Fingerprint(), tt.name)
	}
	got := b.String()

	golden := filepath.Join("testdata", "fingerprints.golden")
	if *UpdateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestFingerprintGolden -update ./` to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("fingerprints drifted from %s:\n got:\n%s want:\n%s", golden, got, want)
	}
}

// TestFingerprintCanonicalEdges pins the custom-graph edge canonicalization:
// any spelling of the same undirected edge set — reversed endpoints,
// shuffled order — must share one fingerprint, and a genuinely different
// edge set must not.
func TestFingerprintCanonicalEdges(t *testing.T) {
	base := Config{Topology: TopologyCustom, Protocol: ProtocolFlood, Value: 1}
	spell := func(edges [][2]int) Job {
		c := base
		c.Graph = &GraphSpec{Nodes: 4, Edges: edges}
		return Job{Config: c}
	}
	a := spell([][2]int{{0, 1}, {1, 2}, {2, 3}})
	b := spell([][2]int{{3, 2}, {1, 0}, {2, 1}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equivalent edge spellings must fingerprint identically")
	}
	c := spell([][2]int{{0, 1}, {1, 2}, {1, 3}})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different edge sets must not collide")
	}
}

// TestFingerprintNonTorusSensitivity checks every non-torus trailer field
// changes the hash.
func TestFingerprintNonTorusSensitivity(t *testing.T) {
	base := Job{Config: Config{Topology: TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Source: 2, Protocol: ProtocolFlood, Value: 1}}
	want := base.Fingerprint()
	mutations := []struct {
		name   string
		mutate func(*Job)
	}{
		{"topology", func(j *Job) { j.Config.Topology = TopologyCustom }},
		{"nodes", func(j *Job) { j.Config.Nodes++ }},
		{"rgg_radius", func(j *Job) { j.Config.RGGRadius += 0.01 }},
		{"topology_seed", func(j *Job) { j.Config.TopologySeed++ }},
		{"source", func(j *Job) { j.Config.Source++ }},
	}
	for _, tt := range mutations {
		j := base
		tt.mutate(&j)
		if j.Fingerprint() == want {
			t.Errorf("changing %s did not change the fingerprint", tt.name)
		}
	}
}

// TestConfigJSONRoundTripNonTorus covers the pointer-bearing non-torus
// configurations the struct-equality round-trip test cannot.
func TestConfigJSONRoundTripNonTorus(t *testing.T) {
	rgg := Config{Topology: TopologyRGG, Nodes: 48, RGGRadius: 0.25, TopologySeed: 7, Source: 3, Protocol: ProtocolFlood, Value: 1}
	custom := Config{Topology: TopologyCustom, Graph: &GraphSpec{Nodes: 3, Edges: [][2]int{{0, 1}, {1, 2}}}, Protocol: ProtocolCPA, T: 1, Value: 1}
	for _, cfg := range []Config{rgg, custom} {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal %+v: %v", cfg, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Errorf("non-torus config round-trip drifted:\n  in  %+v\n  out %+v\n  via %s", cfg, back, data)
		}
	}
	// The family enum must surface by name in the payload.
	data, _ := json.Marshal(rgg)
	if !strings.Contains(string(data), `"topology":"rgg"`) {
		t.Errorf("rgg config JSON %s does not name its family", data)
	}
}
