package rbcast

import (
	"strings"
	"testing"
)

// rggConfig is a minimal valid rgg configuration.
func rggConfig() Config {
	return Config{Topology: TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Protocol: ProtocolFlood, Value: 1}
}

// customConfig is a minimal valid custom-graph configuration (a 4-cycle).
func customConfig() Config {
	return Config{
		Topology: TopologyCustom,
		Graph:    &GraphSpec{Nodes: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		Protocol: ProtocolFlood,
		Value:    1,
	}
}

// TestValidateTopologyRejectsFamilyMismatches pins the cross-family field
// discipline: a Config must never silently ignore fields that belong to a
// different family, and every rejection must name the families involved.
func TestValidateTopologyRejectsFamilyMismatches(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		base    func() Config
		needles []string
	}{
		{"torus rejects Nodes", func(c *Config) { c.Nodes = 8 },
			func() Config { return Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1} },
			[]string{"Nodes", "rgg"}},
		{"torus rejects RGGRadius", func(c *Config) { c.RGGRadius = 0.2 },
			func() Config { return Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1} },
			[]string{"RGGRadius"}},
		{"torus rejects TopologySeed", func(c *Config) { c.TopologySeed = 3 },
			func() Config { return Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1} },
			[]string{"TopologySeed"}},
		{"torus rejects Graph", func(c *Config) { c.Graph = &GraphSpec{Nodes: 2, Edges: [][2]int{{0, 1}}} },
			func() Config { return Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1} },
			[]string{"Graph", "custom"}},
		{"torus rejects Source", func(c *Config) { c.Source = 3 },
			func() Config { return Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1} },
			[]string{"Source"}},
		{"rgg rejects Width", func(c *Config) { c.Width = 10 }, rggConfig, []string{"Width", "torus"}},
		{"rgg rejects Height", func(c *Config) { c.Height = 10 }, rggConfig, []string{"Height", "torus"}},
		{"rgg rejects Radius", func(c *Config) { c.Radius = 1 }, rggConfig, []string{"Radius", "torus"}},
		{"rgg rejects Metric", func(c *Config) { c.Metric = MetricL2 }, rggConfig, []string{"Metric", "torus"}},
		{"rgg rejects SourceX", func(c *Config) { c.SourceX = 1 }, rggConfig, []string{"Source"}},
		{"rgg rejects Graph", func(c *Config) { c.Graph = &GraphSpec{Nodes: 2, Edges: [][2]int{{0, 1}}} },
			rggConfig, []string{"Graph", "custom"}},
		{"rgg needs Nodes", func(c *Config) { c.Nodes = 0 }, rggConfig, []string{"Nodes"}},
		{"rgg needs positive radius", func(c *Config) { c.RGGRadius = 0 }, rggConfig, []string{"RGGRadius"}},
		{"rgg caps radius at 1", func(c *Config) { c.RGGRadius = 1.5 }, rggConfig, []string{"RGGRadius"}},
		{"custom rejects Width", func(c *Config) { c.Width = 10 }, customConfig, []string{"Width", "torus"}},
		{"custom rejects rgg fields", func(c *Config) { c.Nodes = 8 }, customConfig, []string{"rgg"}},
		{"custom needs Graph", func(c *Config) { c.Graph = nil }, customConfig, []string{"Graph"}},
		{"bv4 needs torus", func(c *Config) { c.Protocol = ProtocolBV4; c.T = 1 }, rggConfig, []string{"bv4", "torus"}},
		{"bv2 needs torus", func(c *Config) { c.Protocol = ProtocolBV2; c.T = 1 }, customConfig, []string{"bv2", "torus"}},
		{"exact evidence needs torus", func(c *Config) { c.ExactEvidence = true }, rggConfig, []string{"ExactEvidence"}},
		{"invalid family", func(c *Config) { c.Topology = 9 }, rggConfig, []string{"topology"}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.base()
			tt.mutate(&cfg)
			err := cfg.validate()
			if err == nil {
				t.Fatal("mismatched config validated")
			}
			for _, needle := range tt.needles {
				if !strings.Contains(err.Error(), needle) {
					t.Errorf("error %q does not mention %q", err, needle)
				}
			}
		})
	}
}

// TestValidateTopologyAcceptsEachFamily checks the minimal valid shape of
// every family, including the zero-value torus alias.
func TestValidateTopologyAcceptsEachFamily(t *testing.T) {
	zero := Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	if err := zero.validate(); err != nil {
		t.Errorf("zero-topology torus config: %v", err)
	}
	explicit := zero
	explicit.Topology = TopologyTorus
	if err := explicit.validate(); err != nil {
		t.Errorf("explicit torus config: %v", err)
	}
	if err := rggConfig().validate(); err != nil {
		t.Errorf("rgg config: %v", err)
	}
	if err := customConfig().validate(); err != nil {
		t.Errorf("custom config: %v", err)
	}
}

// TestNonTorusSourceResolution pins Source handling off the torus: in-range
// sources resolve to the node id, out-of-range ones fail at run time with a
// ranged message.
func TestNonTorusSourceResolution(t *testing.T) {
	cfg := customConfig()
	cfg.Source = 2
	res, err := Run(cfg, FaultPlan{})
	if err != nil {
		t.Fatalf("Run with Source=2: %v", err)
	}
	if res.Honest != 4 || !res.Safe() {
		t.Errorf("4-cycle flood from node 2: honest %d, wrong %d", res.Honest, res.Wrong)
	}
	cfg.Source = 4
	if _, err := Run(cfg, FaultPlan{}); err == nil || !strings.Contains(err.Error(), "range") {
		t.Errorf("out-of-range source error = %v, want a ranged rejection", err)
	}
}

// TestNetworkCacheIsBounded pins the shared network cache's bound: twice
// its capacity of distinct rgg seeds leaves at most the capacity resident,
// and a repeated torus config is still served from the cache rather than
// rebuilt.
func TestNetworkCacheIsBounded(t *testing.T) {
	for seed := int64(1); seed <= 2*networkCacheSize; seed++ {
		cfg := Config{Topology: TopologyRGG, Nodes: 16, RGGRadius: 0.3, TopologySeed: seed}
		if _, err := cfg.network(); err != nil {
			t.Fatalf("rgg seed %d: %v", seed, err)
		}
	}
	if n := networks.Stats().Entries; n > networkCacheSize {
		t.Errorf("%d networks resident after %d distinct rgg seeds, want at most %d", n, 2*networkCacheSize, networkCacheSize)
	}
	torus := Config{Width: 9, Height: 7, Radius: 1}
	first, err := torus.torusNetwork()
	if err != nil {
		t.Fatal(err)
	}
	again, err := torus.torusNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("a repeated torus config rebuilt its network instead of reading the cache")
	}
}

// TestTorusOnlyRejectionFormat pins the one canonical message format shared
// by every torus-only gate — the Config protocol gate, the placement gate,
// and the internal protocol factory — as exact strings: the requesting
// protocol or placement first, then the offending family. A drifted copy
// of the message in any layer fails here by its full text.
func TestTorusOnlyRejectionFormat(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{
			name: "bv4 on rgg",
			run: func() error {
				cfg := rggConfig()
				cfg.Protocol = ProtocolBV4
				cfg.T = 1
				_, err := Run(cfg, FaultPlan{})
				return err
			},
			want: `rbcast: protocol bv4 requires the torus topology, got family "rgg"`,
		},
		{
			name: "bv2 on custom",
			run: func() error {
				cfg := customConfig()
				cfg.Protocol = ProtocolBV2
				cfg.T = 1
				_, err := Run(cfg, FaultPlan{})
				return err
			},
			want: `rbcast: protocol bv2 requires the torus topology, got family "custom"`,
		},
		{
			name: "band placement on rgg",
			run: func() error {
				_, err := Run(rggConfig(), FaultPlan{Placement: PlaceBand, Strategy: StrategySilent})
				return err
			},
			want: `rbcast: placement band requires the torus topology, got family "rgg"`,
		},
		{
			name: "greedy-band placement on custom",
			run: func() error {
				_, err := Run(customConfig(), FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent})
				return err
			},
			want: `rbcast: placement greedy-band requires the torus topology, got family "custom"`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("expected the torus-only rejection, got nil")
			}
			if err.Error() != tc.want {
				t.Errorf("error drifted from the canonical format:\n got:  %s\n want: %s", err, tc.want)
			}
		})
	}
}

// TestBandPlacementRequiresTorus pins the placement gate: band-style
// placements are torus geometry and must reject other families by name.
func TestBandPlacementRequiresTorus(t *testing.T) {
	cfg := rggConfig()
	for _, p := range []Placement{PlaceBand, PlaceCheckerboardBand, PlaceGreedyBand} {
		_, err := Run(cfg, FaultPlan{Placement: p, Strategy: StrategySilent})
		if err == nil || !strings.Contains(err.Error(), "torus") {
			t.Errorf("placement %s on rgg: error %v must name the torus family", p, err)
		}
	}
	// Family-agnostic placements still work (CPA so T budgets a fault per
	// neighborhood; the flood config's T=0 budget admits none).
	cfg.Protocol = ProtocolCPA
	cfg.T = 1
	cfg.MaxRounds = 64
	res, err := Run(cfg, FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySilent, Count: 4, Seed: 11})
	if err != nil {
		t.Fatalf("random-bounded on rgg: %v", err)
	}
	if res.Faults == 0 {
		t.Error("random-bounded placed no faults")
	}
}
