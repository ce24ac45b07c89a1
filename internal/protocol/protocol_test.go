package protocol

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(t *testing.T, w, h, r int) *topology.Network {
	t.Helper()
	net, err := topology.New(grid.Torus{W: w, H: h}, grid.Linf, r)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return net
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{Flood, "flood"},
		{CPA, "cpa"},
		{BV4, "bv4"},
		{BV2, "bv2"},
		{Kind(0), "Kind(0)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestEvidenceModeString(t *testing.T) {
	if Designated.String() != "designated" || Exact.String() != "exact" {
		t.Error("mode names wrong")
	}
	if EvidenceMode(9).String() != "EvidenceMode(9)" {
		t.Error("unknown mode formatting")
	}
}

func TestParamsValidation(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	cases := []Params{
		{},                         // nil net
		{Net: net, Source: -1},     // bad source
		{Net: net, Source: 10_000}, // bad source
		{Net: net, Value: 2},       // non-binary value
		{Net: net, T: -1},          // negative bound
	}
	for i, p := range cases {
		if _, err := NewFactory(Flood, p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewFactory(Kind(99), Params{Net: net}); err == nil {
		t.Error("unknown protocol must be rejected")
	}
}

func TestBV4ModeValidation(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	if _, err := NewFactory(BV4, Params{Net: net, Mode: EvidenceMode(9)}); err == nil {
		t.Error("invalid evidence mode must be rejected")
	}
	l2net, err := topology.New(grid.Torus{W: 9, H: 9}, grid.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFactory(BV4, Params{Net: l2net, Mode: Designated}); err == nil {
		t.Error("designated mode requires L∞")
	}
	if _, err := NewFactory(BV4, Params{Net: l2net, Mode: Exact}); err != nil {
		t.Errorf("exact mode must allow L2: %v", err)
	}
}

func TestRunRejectsInvalidAssignments(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	src := net.IDOf(grid.C(0, 0))
	_, err := Run(RunConfig{
		Kind:      Flood,
		Params:    Params{Net: net, Source: src, Value: 1},
		Byzantine: map[topology.NodeID]fault.Strategy{5: fault.Silent},
		Crash:     map[topology.NodeID]int{5: 0},
	})
	if err == nil {
		t.Error("byzantine+crashed node must be rejected")
	}
	_, err = Run(RunConfig{
		Kind:      Flood,
		Params:    Params{Net: net, Source: src, Value: 1},
		Byzantine: map[topology.NodeID]fault.Strategy{src: fault.Silent},
	})
	if err == nil {
		t.Error("byzantine source must be rejected")
	}
}

func TestFloodAllCommitFaultFree(t *testing.T) {
	net := testNet(t, 12, 12, 2)
	src := net.IDOf(grid.C(0, 0))
	out, err := Run(RunConfig{Kind: Flood, Params: Params{Net: net, Source: src, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllCorrect() {
		t.Errorf("flood fault-free: %+v", out)
	}
	if out.Honest != net.Size() {
		t.Errorf("honest = %d", out.Honest)
	}
}

func TestCPAAllCommitFaultFree(t *testing.T) {
	for _, r := range []int{1, 2, 3} {
		net := testNet(t, 8*r, 8*r, r)
		src := net.IDOf(grid.C(0, 0))
		out, err := Run(RunConfig{Kind: CPA, Params: Params{Net: net, Source: src, Value: 1, T: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllCorrect() {
			t.Errorf("r=%d: CPA fault-free: correct=%d wrong=%d undecided=%d",
				r, out.Correct, out.Wrong, out.Undecided)
		}
	}
}

func TestBV2AllCommitFaultFree(t *testing.T) {
	for _, r := range []int{1, 2} {
		net := testNet(t, 9*r, 9*r, r)
		src := net.IDOf(grid.C(0, 0))
		out, err := Run(RunConfig{Kind: BV2, Params: Params{Net: net, Source: src, Value: 1, T: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllCorrect() {
			t.Errorf("r=%d: BV2 fault-free: correct=%d wrong=%d undecided=%d",
				r, out.Correct, out.Wrong, out.Undecided)
		}
	}
}

func TestBV4AllCommitFaultFree(t *testing.T) {
	for _, mode := range []EvidenceMode{Designated, Exact} {
		net := testNet(t, 9, 9, 1)
		src := net.IDOf(grid.C(0, 0))
		out, err := Run(RunConfig{
			Kind:   BV4,
			Params: Params{Net: net, Source: src, Value: 1, T: 0, Mode: mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllCorrect() {
			t.Errorf("mode=%v: BV4 fault-free: correct=%d wrong=%d undecided=%d",
				mode, out.Correct, out.Wrong, out.Undecided)
		}
	}
}

func TestBV4DesignatedFaultFreeR2(t *testing.T) {
	net := testNet(t, 15, 15, 2)
	src := net.IDOf(grid.C(0, 0))
	out, err := Run(RunConfig{
		Kind:   BV4,
		Params: Params{Net: net, Source: src, Value: 1, T: 0, Mode: Designated},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllCorrect() {
		t.Errorf("BV4 designated r=2: correct=%d wrong=%d undecided=%d",
			out.Correct, out.Wrong, out.Undecided)
	}
}

// TestSharedFactoryBuildsIndependentEngines pins the slab factories'
// contract: one factory of each kind builds two engines before either
// runs, and each run must equal a run over a fresh factory. A slab indexed
// by id would hand both engines the same processes.
func TestSharedFactoryBuildsIndependentEngines(t *testing.T) {
	net := testNet(t, 12, 12, 2)
	p := Params{Net: net, Source: net.IDOf(grid.C(0, 0)), Value: 1, T: 2}
	// Exact mode relays every chain, so it gets a small network.
	small := testNet(t, 6, 6, 1)
	exact := Params{Net: small, Source: small.IDOf(grid.C(0, 0)), Value: 1, T: 1, Mode: Exact}
	cases := []struct {
		name string
		kind Kind
		p    Params
	}{
		{"flood", Flood, p},
		{"cpa", CPA, p},
		{"bv4", BV4, p},
		{"bv4-exact", BV4, exact},
		{"bv2", BV2, p},
		{"bracha", Bracha, p},
		{"bracha-auth", BrachaAuth, p},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			configs := []sim.Config{
				{Net: c.p.Net},
				{Net: c.p.Net, Mode: sim.ModeNextRound, CrashAt: map[topology.NodeID]int{13: 1, 14: 2, 26: 0}},
			}
			shared, err := NewFactory(c.kind, c.p)
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*sim.Engine, len(configs))
			for i, cfg := range configs {
				cfg.Factory = shared
				if engines[i], err = sim.NewEngine(cfg); err != nil {
					t.Fatal(err)
				}
			}
			for i, cfg := range configs {
				got, err := engines[i].Run()
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Factory, err = NewFactory(c.kind, c.p); err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("engine %d over a shared factory: %+v, over a fresh one: %+v", i, got.Stats, want.Stats)
				}
			}
		})
	}
}

// TestForkClonesWholeSlabs pins the slab clones behind sim.Engine.Fork
// for flood and CPA: a fork after round 1 allocates the same number of
// times on a 12×12 and a 48×48 torus, because processes, CPA's heard
// lists and the queued messages (CPA has some queued then) are each
// copied into one allocation, and every cloned heard list keeps its
// capacity. Both the fork and its original then finish exactly as a
// fresh run does.
func TestForkClonesWholeSlabs(t *testing.T) {
	for _, kind := range []Kind{Flood, CPA} {
		t.Run(kind.String(), func(t *testing.T) {
			var allocs []float64
			for _, side := range []int{12, 48} {
				net := testNet(t, side, side, 2)
				rc := RunConfig{Kind: kind, Params: Params{Net: net, Source: net.IDOf(grid.C(0, 0)), Value: 1, T: 2}}
				eng, err := NewEngine(rc)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.Forkable() {
					t.Fatal("engine is not forkable")
				}
				if _, err := eng.RunUntil(1); err != nil {
					t.Fatal(err)
				}
				allocs = append(allocs, testing.AllocsPerRun(10, func() {
					if _, err := eng.Fork(nil, nil); err != nil {
						t.Fatal(err)
					}
				}))
				fork, err := eng.Fork(nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if kind == CPA {
					requireHeardCapacityKept(t, rc)
				}
				want, err := Run(rc)
				if err != nil {
					t.Fatal(err)
				}
				for name, e := range map[string]*sim.Engine{"fork": fork, "original": eng} {
					got, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want.Result) {
						t.Errorf("%d×%d: the %s finished with %+v, a fresh run with %+v", side, side, name, got.Stats, want.Result.Stats)
					}
				}
			}
			if allocs[0] != allocs[1] {
				t.Errorf("a fork allocates %.0f times on 12×12 and %.0f times on 48×48", allocs[0], allocs[1])
			}
			t.Logf("a fork allocates %.0f times", allocs[0])
		})
	}
}

// requireHeardCapacityKept forks a CPA engine through a clone that checks
// every cloned heard list's capacity against its original's.
func requireHeardCapacityKept(t *testing.T, rc RunConfig) {
	t.Helper()
	factory, err := rc.Factory()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	eng, err := sim.NewEngine(sim.Config{Net: rc.Params.Net, Factory: factory, Clone: func(procs []sim.Process) []sim.Process {
		clones := cloneCPAs(procs)
		for i := range procs {
			o, c := procs[i].(*cpaProc), clones[i].(*cpaProc)
			if cap(c.heard) != cap(o.heard) || !slices.Equal(c.heard, o.heard) {
				t.Fatalf("node %d: cloned heard list %v (capacity %d), original %v (capacity %d)",
					i, c.heard, cap(c.heard), o.heard, cap(o.heard))
			}
			if len(o.heard) > 0 {
				checked++
			}
		}
		return clones
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Fork(nil, nil); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Error("no process had heard a vote at the fork")
	}
}
