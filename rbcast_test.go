package rbcast

import (
	"math"
	"strings"
	"testing"
)

func TestProtocolString(t *testing.T) {
	tests := []struct {
		p    Protocol
		want string
	}{
		{ProtocolFlood, "flood"},
		{ProtocolCPA, "cpa"},
		{ProtocolBV4, "bv4"},
		{ProtocolBV2, "bv2"},
		{Protocol(0), "Protocol(0)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestMetricString(t *testing.T) {
	tests := []struct {
		m    Metric
		want string
	}{
		{MetricLinf, "linf"},
		{MetricL2, "l2"},
		{Metric(0), "Metric(0)"},
		{Metric(9), "Metric(9)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	base := Config{Width: 12, Height: 12, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	cases := []Config{
		{Width: 2, Height: 12, Radius: 1, Protocol: ProtocolFlood}, // torus too small
		{Width: 12, Height: 12, Radius: 1},                         // no protocol
		func() Config { c := base; c.Metric = Metric(9); return c }(),
		func() Config { c := base; c.Protocol = Protocol(9); return c }(),
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, FaultPlan{}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := Run(base, FaultPlan{Placement: Placement(99)}); err == nil {
		t.Error("invalid placement must be rejected")
	}
	if _, err := Run(base, FaultPlan{Placement: PlaceBand, Strategy: Strategy(99)}); err == nil {
		t.Error("invalid strategy must be rejected")
	}
	if _, err := Run(base, FaultPlan{Placement: PlacePercolation, Probability: math.NaN(), Seed: 1}); err == nil {
		t.Error("a NaN percolation probability must be rejected, not place no faults")
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Width: 12, Height: 12, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // empty: must succeed
	}{
		{"value 2", func(c *Config) { c.Value = 2 }, "value must be 0 or 1"},
		{"value 255", func(c *Config) { c.Value = 255 }, "value must be 0 or 1"},
		{"negative T", func(c *Config) { c.T = -1 }, "negative fault bound"},
		{"T = 2³¹−1 ok", func(c *Config) { c.T = math.MaxInt32 }, ""},
		// Unbounded, CPA's t+1 wraps negative and every node commits on
		// one vote.
		{"cpa T = MaxInt64", func(c *Config) {
			*c = Config{Width: 24, Height: 14, Radius: 2, Protocol: ProtocolCPA, T: math.MaxInt64, Value: 1}
		}, "exceeds 2³¹−1"},
		// Unbounded, 3T+1 wraps to 13 and K13 passes the N ≥ 3T+1 check.
		{"bracha 3T+1 wraps", func(c *Config) {
			var edges [][2]int
			for a := 0; a < 13; a++ {
				for b := a + 1; b < 13; b++ {
					edges = append(edges, [2]int{a, b})
				}
			}
			*c = Config{Topology: TopologyCustom, Graph: &GraphSpec{Nodes: 13, Edges: edges},
				Protocol: ProtocolBracha, T: 3074457345618258603, Value: 1}
		}, "exceeds 2³¹−1"},
		{"negative loss rate", func(c *Config) { c.LossRate = -0.1 }, "loss rate"},
		{"loss rate 1", func(c *Config) { c.LossRate = 1 }, "loss rate"},
		{"loss rate 1.5", func(c *Config) { c.LossRate = 1.5 }, "loss rate"},
		// JSON cannot carry NaN, but a library caller can; it must not
		// run as the ideal medium.
		{"NaN loss rate", func(c *Config) { c.LossRate = math.NaN() }, "loss rate"},
		{"negative retransmit", func(c *Config) { c.Retransmit = -1 }, "Retransmit"},
		{"negative max rounds", func(c *Config) { c.MaxRounds = -5 }, "MaxRounds"},
		{"max rounds 0 ok", func(c *Config) { c.MaxRounds = 0 }, ""},
		{"retransmit 0 ok", func(c *Config) { c.Retransmit = 0 }, ""},
		{"concurrent + lossy", func(c *Config) { c.Concurrent = true; c.LossRate = 0.2 }, "sequential engine"},
		{"concurrent + retransmit", func(c *Config) { c.Concurrent = true; c.Retransmit = 2 }, "Retransmit"},
		{"concurrent + medium seed", func(c *Config) { c.Concurrent = true; c.MediumSeed = 7 }, "MediumSeed"},
		{"concurrent + lock step", func(c *Config) { c.Concurrent = true; c.LockStep = true }, "LockStep"},
		{"sequential retransmit ok", func(c *Config) { c.Retransmit = 3; c.LossRate = 0.1 }, ""},
		{"concurrent retransmit 1 ok", func(c *Config) { c.Concurrent = true; c.Retransmit = 1 }, ""},
		{"value 0 ok", func(c *Config) { c.Value = 0 }, ""},
	}
	for _, tt := range tests {
		cfg := base
		tt.mutate(&cfg)
		_, err := Run(cfg, FaultPlan{})
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error containing %q", tt.name, tt.wantErr)
		} else if !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.wantErr)
		}
	}
}

func TestMetricsReconcileWithTrafficStats(t *testing.T) {
	// The E25 message-complexity scenario: bv4 (earmarked) at r=1 against
	// the strongest greedy band. The metrics layer must agree with the
	// engine's headline counters exactly.
	cfg := Config{
		Width: 16, Height: 10, Radius: 1,
		Protocol: ProtocolBV4, T: MaxByzantineLinf(1), Value: 1,
	}
	res, err := Run(cfg, FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent})
	if err != nil {
		t.Fatal(err)
	}
	var b, d, commits int
	for _, rc := range res.Metrics.PerRound {
		b += rc.Broadcasts
		d += rc.Deliveries
		commits += rc.Commits
	}
	if b != res.Broadcasts {
		t.Errorf("per-round broadcasts sum %d != Broadcasts %d", b, res.Broadcasts)
	}
	if d != res.Deliveries {
		t.Errorf("per-round deliveries sum %d != Deliveries %d", d, res.Deliveries)
	}
	decided := 0
	commitRounds := make(map[int]int)
	for _, dec := range res.Decisions {
		if dec.Decided {
			decided++
			commitRounds[dec.Round]++
		}
	}
	if commits != decided || res.Metrics.Commits != decided {
		t.Errorf("commit counters %d/%d != decided nodes %d", commits, res.Metrics.Commits, decided)
	}
	got := res.Metrics.CommitRounds()
	for round, n := range commitRounds {
		if got[round] != n {
			t.Errorf("round %d: commit histogram %d, want %d", round, got[round], n)
		}
	}
	if res.Metrics.EvidenceEvals == 0 {
		t.Error("bv4 run recorded no evidence evaluations")
	}
	if res.Metrics.Wall <= 0 {
		t.Errorf("wall time %v not positive", res.Metrics.Wall)
	}
	if len(res.Metrics.PerRound) > res.Rounds+1 {
		t.Errorf("%d per-round buckets for %d rounds", len(res.Metrics.PerRound), res.Rounds)
	}
}

func TestMetricsAgreeAcrossEngines(t *testing.T) {
	// The concurrent runtime matches sim.ModeNextRound exactly, so every
	// counter except wall time must be identical.
	seq := Config{Width: 12, Height: 12, Radius: 1, Protocol: ProtocolBV2, T: 1, Value: 1, LockStep: true}
	plan := FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySilent, Seed: 3}
	sres, err := Run(seq, plan)
	if err != nil {
		t.Fatal(err)
	}
	conc := seq
	conc.LockStep = false
	conc.Concurrent = true
	cres, err := Run(conc, plan)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Broadcasts != cres.Broadcasts || sres.Deliveries != cres.Deliveries {
		t.Errorf("traffic totals diverge: seq %d/%d conc %d/%d",
			sres.Broadcasts, sres.Deliveries, cres.Broadcasts, cres.Deliveries)
	}
	if sres.Metrics.Commits != cres.Metrics.Commits {
		t.Errorf("commit totals diverge: %d vs %d", sres.Metrics.Commits, cres.Metrics.Commits)
	}
	if sres.Metrics.EvidenceEvals != cres.Metrics.EvidenceEvals {
		t.Errorf("evidence evals diverge: %d vs %d", sres.Metrics.EvidenceEvals, cres.Metrics.EvidenceEvals)
	}
	if len(sres.Metrics.PerRound) != len(cres.Metrics.PerRound) {
		t.Fatalf("round histograms differ in length: %d vs %d",
			len(sres.Metrics.PerRound), len(cres.Metrics.PerRound))
	}
	for i := range sres.Metrics.PerRound {
		if sres.Metrics.PerRound[i] != cres.Metrics.PerRound[i] {
			t.Errorf("round %d: %+v vs %+v", i, sres.Metrics.PerRound[i], cres.Metrics.PerRound[i])
		}
	}
}

func TestFaultFreeRun(t *testing.T) {
	for _, p := range []Protocol{ProtocolFlood, ProtocolCPA, ProtocolBV2, ProtocolBV4} {
		res, err := Run(Config{
			Width: 12, Height: 12, Radius: 1, Protocol: p, Value: 1,
		}, FaultPlan{})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.AllCorrect() {
			t.Errorf("%v fault-free: correct=%d wrong=%d undecided=%d",
				p, res.Correct, res.Wrong, res.Undecided)
		}
		if res.Honest != 144 || res.Faults != 0 {
			t.Errorf("%v: honest=%d faults=%d", p, res.Honest, res.Faults)
		}
		if len(res.Decisions) != 144 {
			t.Errorf("%v: decisions for %d nodes", p, len(res.Decisions))
		}
	}
}

func TestByzantineThresholdRun(t *testing.T) {
	r := 1
	cfg := Config{
		Width: 16, Height: 10, Radius: r,
		Protocol: ProtocolBV4,
		T:        MaxByzantineLinf(r),
		Value:    1,
	}
	res, err := Run(cfg, FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategyForger})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect() {
		t.Errorf("BV4 at threshold: %+v", res)
	}
	if res.MaxFaultsPerNbd > cfg.T {
		t.Errorf("placement exceeded budget: %d > %d", res.MaxFaultsPerNbd, cfg.T)
	}
	if res.Faults == 0 {
		t.Error("greedy band placed no faults")
	}
}

func TestImpossibilityConstructionRun(t *testing.T) {
	r := 1
	cfg := Config{
		Width: 16, Height: 10, Radius: r,
		Protocol: ProtocolBV4,
		T:        MinImpossibleByzantineLinf(r),
		Value:    1,
	}
	res, err := Run(cfg, FaultPlan{Placement: PlaceCheckerboardBand, Strategy: StrategySilent})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllCorrect() {
		t.Error("the Fig 13 construction must stall some nodes")
	}
	if !res.Safe() {
		t.Error("safety must hold even at the impossibility bound")
	}
	if res.MaxFaultsPerNbd != MinImpossibleByzantineLinf(r) {
		t.Errorf("construction density %d, want %d", res.MaxFaultsPerNbd, MinImpossibleByzantineLinf(r))
	}
}

func TestCrashPartitionRun(t *testing.T) {
	r := 1
	cfg := Config{Width: 16, Height: 10, Radius: r, Protocol: ProtocolFlood, Value: 1}
	res, err := Run(cfg, FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash})
	if err != nil {
		t.Fatal(err)
	}
	if res.Undecided == 0 {
		t.Error("the Fig 8 band must partition the torus")
	}
	if res.Correct == 0 {
		t.Error("the source side must still be reached")
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	cfg := Config{Width: 12, Height: 12, Radius: 1, Protocol: ProtocolBV2, T: 1, Value: 1}
	plan := FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySilent, Seed: 3}
	seq, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Concurrent = true
	conc, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Correct != conc.Correct || seq.Wrong != conc.Wrong || seq.Undecided != conc.Undecided {
		t.Errorf("engines disagree: seq %+v conc %+v", seq, conc)
	}
	for n, d := range seq.Decisions {
		cd := conc.Decisions[n]
		if d.Decided != cd.Decided || (d.Decided && d.Value != cd.Value) {
			t.Errorf("node %v: seq %+v conc %+v", n, d, cd)
		}
	}
}

func TestPercolationPlan(t *testing.T) {
	cfg := Config{Width: 16, Height: 16, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	res, err := Run(cfg, FaultPlan{Placement: PlacePercolation, Probability: 0.15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Error("percolation placed no faults")
	}
	frac := float64(res.Correct) / float64(res.Honest)
	if frac < 0.5 {
		t.Errorf("delivered fraction %v suspiciously low at p=0.15", frac)
	}
}

func TestThresholdAccessors(t *testing.T) {
	for r := 1; r <= 10; r++ {
		if MaxByzantineLinf(r)+1 != MinImpossibleByzantineLinf(r) {
			t.Errorf("r=%d: Byzantine bounds not adjacent", r)
		}
		if MaxCrashLinf(r)+1 != MinImpossibleCrashLinf(r) {
			t.Errorf("r=%d: crash bounds not adjacent", r)
		}
		if MaxCPALinf(r) > MaxByzantineLinf(r) {
			t.Errorf("r=%d: CPA bound above exact threshold", r)
		}
		if ApproxByzantineL2(r) >= ApproxImpossibleCrashL2(r) {
			t.Errorf("r=%d: L2 ordering broken", r)
		}
		_ = KooCPALinf(r)
		_ = ApproxImpossibleByzantineL2(r)
		_ = ApproxCrashL2(r)
	}
}

func TestNeighborhoodSize(t *testing.T) {
	if n, err := NeighborhoodSize(MetricLinf, 2); err != nil || n != 25 {
		t.Errorf("L∞ r=2: %d, %v", n, err)
	}
	if n, err := NeighborhoodSize(MetricL2, 2); err != nil || n != 13 {
		t.Errorf("L2 r=2: %d, %v", n, err)
	}
	if _, err := NeighborhoodSize(Metric(9), 2); err == nil {
		t.Error("invalid metric must error")
	}
}

func TestMaxFaultsPerNeighborhoodHelper(t *testing.T) {
	cfg := Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	got, err := MaxFaultsPerNeighborhood(cfg, FaultPlan{Placement: PlaceBand})
	if err != nil {
		t.Fatal(err)
	}
	if want := MinImpossibleCrashLinf(1); got != want {
		t.Errorf("band density = %d, want %d", got, want)
	}
}

func TestNodeString(t *testing.T) {
	if got := (Node{X: 3, Y: -1}).String(); got != "(3,-1)" {
		t.Errorf("Node.String = %q", got)
	}
}

func TestRandomBoundedPlanPlacesFaults(t *testing.T) {
	// Regression: Count = 0 must mean "maximal placement", not "no faults".
	cfg := Config{Width: 16, Height: 16, Radius: 1, Protocol: ProtocolFlood, T: 1, Value: 1}
	res, err := Run(cfg, FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyCrash, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Error("maximal random placement placed no faults")
	}
	if res.MaxFaultsPerNbd > 1 {
		t.Errorf("budget violated: %d", res.MaxFaultsPerNbd)
	}
	// An explicit positive Count caps the placement.
	res2, err := Run(cfg, FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyCrash, Seed: 2, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Faults > 3 {
		t.Errorf("count cap ignored: %d faults", res2.Faults)
	}
}

func TestSpoofingCollapseViaPublicAPI(t *testing.T) {
	cfg := Config{
		Width: 16, Height: 16, Radius: 1,
		Protocol: ProtocolBV4, T: 1, Value: 1,
	}
	plan := FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySpoofer, Seed: 2}
	authenticated, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !authenticated.AllCorrect() {
		t.Errorf("spoofers must be harmless under authentication: %+v", authenticated)
	}
	cfg.SpoofingPossible = true
	spoofable, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if spoofable.Safe() {
		t.Error("spoofing must break safety (§X)")
	}
}

func TestLossyMediumViaPublicAPI(t *testing.T) {
	cfg := Config{
		Width: 12, Height: 12, Radius: 1,
		Protocol: ProtocolFlood, Value: 1,
		LossRate: 0.8, Retransmit: 10, MediumSeed: 4,
	}
	res, err := Run(cfg, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect() {
		t.Errorf("10 retransmissions at 80%% loss: %+v", res)
	}
	cfg.Concurrent = true
	if _, err := Run(cfg, FaultPlan{}); err == nil {
		t.Error("lossy medium must be rejected on the concurrent engine")
	}
	cfg.Concurrent = false
	cfg.LossRate = 1.5
	if _, err := Run(cfg, FaultPlan{}); err == nil {
		t.Error("invalid loss rate must be rejected")
	}
}

func TestAgreePublicAPI(t *testing.T) {
	cfg := AgreementConfig{
		Width: 12, Height: 12, Radius: 1,
		Protocol: ProtocolBV4,
		T:        1,
		Committee: []Node{
			{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 0, Y: 6},
		},
		Inputs:         []byte{1, 1, 0},
		ByzantineNodes: []Node{{X: 0, Y: 6}},
		Strategy:       StrategyLiar,
	}
	res, err := Agree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.Validity {
		t.Errorf("agreement=%v validity=%v", res.Agreement, res.Validity)
	}
	for n, d := range res.Decisions {
		if d != 1 {
			t.Errorf("node %v decided %d, want 1", n, d)
		}
	}
	// Validation paths.
	bad := cfg
	bad.Inputs = []byte{1}
	if _, err := Agree(bad); err == nil {
		t.Error("mismatched inputs must be rejected")
	}
	bad2 := cfg
	bad2.Strategy = StrategySpoofer
	if _, err := Agree(bad2); err == nil {
		t.Error("spoofer strategy is not supported by Agree")
	}
}
