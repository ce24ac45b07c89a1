package rbcast

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// sweepHash fingerprints a Result with Metrics.Wall zeroed — the same
// byte-identity convention as scenarios.ResultHash (which this internal test
// cannot import without a cycle). Every sweep element must hash equal to its
// independent scalar run.
func sweepHash(t *testing.T, res Result) string {
	t.Helper()
	res.Metrics.Wall = 0
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// requireSweepMatchesScalar runs the jobs through RunSweepJobs and asserts
// every element is byte-identical to its own scalar Run.
func requireSweepMatchesScalar(t *testing.T, name string, jobs []Job) SweepStats {
	t.Helper()
	results, stats := RunSweepJobs(jobs, BatchOptions{})
	if len(results) != len(jobs) {
		t.Fatalf("%s: %d results for %d jobs", name, len(results), len(jobs))
	}
	for i, job := range jobs {
		want, werr := Run(job.Config, job.Plan)
		got := results[i]
		if (werr == nil) != (got.Err == nil) {
			t.Fatalf("%s[%d]: sweep err %v, scalar err %v", name, i, got.Err, werr)
		}
		if werr != nil {
			if got.Err.Error() != werr.Error() {
				t.Errorf("%s[%d]: sweep err %q, scalar err %q", name, i, got.Err, werr)
			}
			continue
		}
		if g, w := sweepHash(t, got.Result), sweepHash(t, want); g != w {
			t.Errorf("%s[%d]: sweep result %s, scalar %s (rounds %d vs %d, correct %d vs %d)",
				name, i, g, w, got.Result.Rounds, want.Rounds, got.Result.Correct, want.Correct)
		}
	}
	return stats
}

// TestSweepCrashRoundFamilies exercises the wavefront-prefix fork layer:
// crash-round sweeps for both cloneable protocols on all three topology
// families must be byte-identical to scalar runs and must actually share
// prefix work.
func TestSweepCrashRoundFamilies(t *testing.T) {
	cases := []struct {
		name string
		spec SweepSpec
	}{
		{"flood/torus-band", SweepSpec{
			Base: Job{
				Config: Config{Width: 16, Height: 12, Radius: 1, Protocol: ProtocolFlood, Value: 1},
				Plan:   FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash},
			},
			Axes: SweepAxes{CrashRounds: []int{1, 2, 3, 4, 5, 6, 7, 8}},
		}},
		{"cpa/torus-greedy", SweepSpec{
			Base: Job{
				Config: Config{Width: 20, Height: 12, Radius: 2, Protocol: ProtocolCPA, T: 2, Value: 1},
				Plan:   FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategyCrash},
			},
			Axes: SweepAxes{CrashRounds: []int{1, 2, 3, 5, 9}},
		}},
		{"flood/rgg-random", SweepSpec{
			Base: Job{
				Config: Config{Topology: TopologyRGG, Nodes: 90, RGGRadius: 0.22, TopologySeed: 7, Protocol: ProtocolFlood, Value: 1},
				Plan:   FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyCrash, Count: 12, Seed: 3, Budget: 4},
			},
			Axes: SweepAxes{CrashRounds: []int{1, 2, 3, 4}},
		}},
		{"cpa/custom-ring", SweepSpec{
			Base: Job{
				Config: Config{Topology: TopologyCustom, Graph: chordRing(24, 4), Protocol: ProtocolCPA, T: 1, Value: 1},
				Plan:   FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyCrash, Count: 3, Seed: 5, Budget: 2},
			},
			Axes: SweepAxes{CrashRounds: []int{1, 2, 3}},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := tc.spec.Elements()
			if err != nil {
				t.Fatal(err)
			}
			stats := requireSweepMatchesScalar(t, tc.name, jobs)
			if stats.Forks == 0 {
				t.Errorf("expected prefix forks, got stats %+v", stats)
			}
			if stats.NodeRounds >= stats.ScalarNodeRounds {
				t.Errorf("no node-round saving: %d actual vs %d scalar", stats.NodeRounds, stats.ScalarNodeRounds)
			}
		})
	}
}

// TestSweepExecutionKeySharing exercises the dead-parameter layer: flood
// ignores T, deterministic placements ignore Seed — those axes must collapse
// to a single simulation and still match scalar runs element-for-element.
func TestSweepExecutionKeySharing(t *testing.T) {
	spec := SweepSpec{
		Base: Job{
			Config: Config{Width: 14, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1},
			Plan:   FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash, CrashRound: 3},
		},
		Axes: SweepAxes{Ts: []int{0, 1, 2, 3}, Seeds: []int64{1, 2, 3}},
	}
	jobs, err := spec.Elements()
	if err != nil {
		t.Fatal(err)
	}
	stats := requireSweepMatchesScalar(t, "flood/dead-axes", jobs)
	if stats.Simulations != 1 {
		t.Errorf("dead axes should collapse to 1 simulation, got %d (stats %+v)", stats.Simulations, stats)
	}
	if stats.SharedResults != len(jobs)-1 {
		t.Errorf("SharedResults = %d, want %d", stats.SharedResults, len(jobs)-1)
	}
}

// TestSweepHeterogeneous mixes protocols, topologies and invalid elements in
// one randomized grid, cross-checking every element against its scalar run —
// the non-fork paths (bv4/bracha, byzantine strategies, validation errors)
// must flow through the sweep untouched.
func TestSweepHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var jobs []Job
	bases := []Job{
		{Config: Config{Width: 12, Height: 10, Radius: 1, Protocol: ProtocolBV4, T: 1, Value: 1},
			Plan: FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent}},
		{Config: Config{Width: 12, Height: 10, Radius: 1, Protocol: ProtocolBV2, T: 1, Value: 1},
			Plan: FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategyLiar}},
		{Config: Config{Width: 5, Height: 5, Radius: 2, Protocol: ProtocolBracha, T: 8, Value: 1},
			Plan: FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySilent, Count: 8}},
		{Config: Config{Topology: TopologyRGG, Nodes: 60, RGGRadius: 0.25, TopologySeed: 2, Protocol: ProtocolCPA, T: 1, Value: 1},
			Plan: FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategySilent, Count: 4, Budget: 2}},
		// Invalid on purpose: negative T rejects identically in both paths.
		{Config: Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, T: -1, Value: 1}},
	}
	for i := 0; i < 24; i++ {
		j := bases[rng.Intn(len(bases))]
		j.Plan.Seed = int64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			j.Config.LockStep = true
		}
		jobs = append(jobs, j)
	}
	requireSweepMatchesScalar(t, "heterogeneous", jobs)
}

// TestSweepElementsExpansion pins the documented axis order and the size cap.
func TestSweepElementsExpansion(t *testing.T) {
	spec := SweepSpec{
		Base: Job{Config: Config{Width: 10, Height: 10, Radius: 1, Protocol: ProtocolFlood, Value: 1}},
		Axes: SweepAxes{
			Placements:  []Placement{PlaceBand, PlaceNone},
			Ts:          []int{0, 1},
			CrashRounds: []int{1, 2, 3},
		},
	}
	jobs, err := spec.Elements()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("got %d elements, want 12", len(jobs))
	}
	// Placements outermost, CrashRounds innermost.
	if jobs[0].Plan.Placement != PlaceBand || jobs[0].Config.T != 0 || jobs[0].Plan.CrashRound != 1 {
		t.Errorf("element 0 = %+v", jobs[0])
	}
	if jobs[1].Plan.CrashRound != 2 {
		t.Errorf("element 1 crash round = %d, want 2", jobs[1].Plan.CrashRound)
	}
	if jobs[6].Plan.Placement != PlaceNone {
		t.Errorf("element 6 placement = %v, want none", jobs[6].Plan.Placement)
	}
	big := SweepSpec{Base: spec.Base, Axes: SweepAxes{
		Ts:    make([]int, 100),
		Seeds: make([]int64, 100),
	}}
	if _, err := big.Elements(); err == nil {
		t.Error("oversized grid should be rejected")
	}
}

// TestSweepElementsRejectsOverflowingGrid: four 65,536-entry axes multiply
// to 2^64, which wraps int to 0. The cap must reject the grid before
// expanding it. An expansion past the cap appends jobs until memory runs
// out, so the test aborts the binary if Elements does not return promptly.
func TestSweepElementsRejectsOverflowingGrid(t *testing.T) {
	const n = 1 << 16
	spec := SweepSpec{Axes: SweepAxes{
		Placements:  make([]Placement, n),
		Ts:          make([]int, n),
		Seeds:       make([]int64, n),
		CrashRounds: make([]int, n),
	}}
	guard := time.AfterFunc(time.Second, func() { panic("SweepSpec.Elements is expanding a grid over the cap") })
	defer guard.Stop()
	if jobs, err := spec.Elements(); err == nil || jobs != nil {
		t.Fatalf("overflowing grid: %d jobs, err %v; want the cap error", len(jobs), err)
	}
}

// FuzzSweepSpec fuzzes the multi-job wire path. Any body that strictly
// decodes to a SweepSpec either fails to expand or expands within the
// element cap. A tiny grid — at most 8 elements on at most 64 nodes, with
// MaxRounds and Retransmit clamped to 8 — also runs through RunSweepJobs
// without a panic and element for element equal to scalar runs.
func FuzzSweepSpec(f *testing.F) {
	sixteen := func(v string) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", 16), ",") + "]" }
	for _, seed := range []string{
		`{}`,
		`{"base":{"config":{"width":8,"height":8,"radius":1,"protocol":"flood","value":1},"plan":{"placement":"band","strategy":"crash"}},"axes":{"ts":[0,1],"crash_rounds":[1,2,3]}}`,
		`{"base":{"config":{"width":8,"height":6,"radius":1,"protocol":"cpa","t":1,"value":1},"plan":{"placement":"greedy-band","strategy":"crash"}},"axes":{"seeds":[1,2],"crash_rounds":[2,4]}}`,
		`{"base":{"config":{"width":7,"height":7,"radius":1,"protocol":"bv4","t":1,"value":1},"plan":{"placement":"greedy-band","strategy":"silent"}},"axes":{"placements":["greedy-band","none"]}}`,
		`{"base":{"config":{"width":8,"height":8,"radius":1,"protocol":"bv2","t":1,"concurrent":true},"plan":{"placement":"greedy-band","strategy":"liar"}},"axes":{"ts":[0,1,-1]}}`,
		`{"base":{"config":{"topology":"custom","graph":{"nodes":4,"edges":[[0,1],[1,2],[2,3]]},"protocol":"bracha","t":1,"trace":true}},"axes":{"ts":[0,1]}}`,
		`{"base":{"config":{"topology":"rgg","nodes":30,"rgg_radius":0.4,"protocol":"flood","value":1},"plan":{"placement":"random-bounded","count":3,"budget":1,"strategy":"crash"}},"axes":{"seeds":[1,2],"crash_rounds":[1,2,3]}}`,
		`{"base":{"config":{"width":5,"height":5,"radius":1,"protocol":"flood","loss_rate":0.5,"retransmit":2,"medium_seed":3}},"axes":{"placements":["band","","none"]}}`,
		`{"axes":{"placements":` + sixteen(`""`) + `,"ts":` + sixteen("0") + `,"seeds":` + sixteen("0") + `,"crash_rounds":` + sixteen("0") + `}}`,
		`{"base":{"config":{"width":16}},"axes":{"ts":[1]},"workers":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeStrict[SweepSpec](data)
		if err != nil {
			return
		}
		// Rounds and retransmissions multiply the work of every node.
		c := &spec.Base.Config
		if c.MaxRounds == 0 || c.MaxRounds > 8 {
			c.MaxRounds = 8
		}
		c.Retransmit = min(c.Retransmit, 8)
		jobs, err := spec.Elements()
		if err != nil {
			return
		}
		if len(jobs) > MaxSweepElements {
			t.Fatalf("%d elements pass the %d-element cap", len(jobs), MaxSweepElements)
		}
		// The concurrent engine's traces interleave events within a round
		// nondeterministically, so two runs of one element differ.
		if len(jobs) > 8 || !tinyNetwork(*c) || (c.Concurrent && c.Trace) {
			return
		}
		out, _ := RunSweepJobs(jobs, BatchOptions{})
		for i, br := range out {
			var pe *PanicError
			if errors.As(br.Err, &pe) {
				t.Fatalf("element %d panicked: %v\n%s", i, pe.Value, pe.Stack)
			}
		}
		requireSweepMatchesScalar(t, "fuzz", jobs)
	})
}

// tinyNetwork reports whether c builds at most 64 nodes, or is rejected
// before building anything.
func tinyNetwork(c Config) bool {
	switch c.family() {
	case TopologyTorus:
		return c.Width <= 64 && c.Height <= 64 && c.Width*c.Height <= 64
	case TopologyRGG:
		return c.Nodes <= 64
	case TopologyCustom:
		return c.Graph == nil || c.Graph.Nodes <= 64
	}
	return true
}

// TestExecutionKeyBudgetTrap pins the one subtle non-collapse: flood ignores
// T in the protocol, but a budgeted placement with Budget 0 resolves its
// budget *from* T — those elements must not share an execution.
func TestExecutionKeyBudgetTrap(t *testing.T) {
	mk := func(tval, budget int) Job {
		return Job{
			Config: Config{Width: 16, Height: 12, Radius: 2, Protocol: ProtocolFlood, T: tval, Value: 1},
			Plan:   FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategyCrash, CrashRound: 2, Budget: budget},
		}
	}
	if mk(1, 0).executionKey() == mk(3, 0).executionKey() {
		t.Error("T feeds the greedy-band budget when Budget is 0; keys must differ")
	}
	if mk(1, 2).executionKey() != mk(3, 2).executionKey() {
		t.Error("with an explicit Budget, flood's T is dead; keys must match")
	}
	// And the sweep must produce scalar-identical results either way.
	jobs := []Job{mk(1, 0), mk(3, 0), mk(1, 2), mk(3, 2)}
	requireSweepMatchesScalar(t, "budget-trap", jobs)
}

// chordRing builds a ring of n nodes where each node also links to the node
// k steps ahead — a small-diameter custom graph for non-grid sweeps.
func chordRing(n, k int) *GraphSpec {
	spec := &GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, [2]int{i, (i + 1) % n})
		if k > 1 {
			spec.Edges = append(spec.Edges, [2]int{i, (i + k) % n})
		}
	}
	return spec
}
