package runtime

import (
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// floodProc mirrors the test protocol in package sim: commit to the first
// value heard and relay once.
type floodProc struct {
	id      topology.NodeID
	source  topology.NodeID
	value   byte
	decided bool
}

func (p *floodProc) Init(ctx sim.Context) {
	if p.id == p.source {
		p.decided = true
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: p.value})
	}
}

func (p *floodProc) Deliver(ctx sim.Context, _ topology.NodeID, m sim.Message) {
	if p.decided || m.Kind != sim.KindValue {
		return
	}
	p.decided = true
	p.value = m.Value
	ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: m.Value})
}

func (p *floodProc) Decided() (byte, bool) {
	if !p.decided {
		return 0, false
	}
	return p.value, true
}

func floodFactory(source topology.NodeID, v byte) sim.ProcessFactory {
	return func(id topology.NodeID) sim.Process {
		p := &floodProc{id: id, source: source}
		if id == source {
			p.value = v
		}
		return p
	}
}

func testNet(t *testing.T, w, h, r int) *topology.Network {
	t.Helper()
	net, err := topology.New(grid.Torus{W: w, H: h}, grid.Linf, r)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return net
}

func TestRunValidation(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	if _, err := Run(Config{Factory: floodFactory(0, 1)}); err == nil {
		t.Error("missing Net must be rejected")
	}
	if _, err := Run(Config{Net: net}); err == nil {
		t.Error("missing Factory must be rejected")
	}
}

func TestConcurrentFloodDelivers(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	source := net.IDOf(grid.C(0, 0))
	res, err := Run(Config{Net: net, Factory: floodFactory(source, 1)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Stats.Quiesced {
		t.Error("must quiesce")
	}
	if len(res.Decisions) != net.Size() {
		t.Fatalf("%d decisions for %d nodes", len(res.Decisions), net.Size())
	}
	for id, d := range res.Decisions {
		if !d.Decided || d.Value != 1 {
			t.Errorf("node %d: %+v, want a commit of 1", id, d)
		}
	}
}

// TestEquivalenceWithSequentialEngine is the E20 differential test: the
// concurrent runtime and the sequential engine in lock-step mode must agree
// on every decided value, every decision round, and all traffic statistics.
func TestEquivalenceWithSequentialEngine(t *testing.T) {
	for _, tc := range []struct {
		w, h, r int
		crash   map[topology.NodeID]int
	}{
		{10, 10, 1, nil},
		{10, 10, 2, nil},
		{12, 9, 1, map[topology.NodeID]int{5: 0, 17: 2, 40: 1}},
	} {
		net := testNet(t, tc.w, tc.h, tc.r)
		source := net.IDOf(grid.C(0, 0))
		seq, err := sim.Run(sim.Config{
			Net:     net,
			Mode:    sim.ModeNextRound,
			Factory: floodFactory(source, 1),
			CrashAt: tc.crash,
		})
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		conc, err := Run(Config{Net: net, Factory: floodFactory(source, 1), CrashAt: tc.crash})
		if err != nil {
			t.Fatalf("runtime.Run: %v", err)
		}
		if seq.Stats != conc.Stats {
			t.Errorf("%dx%d r=%d: stats differ: seq %+v conc %+v", tc.w, tc.h, tc.r, seq.Stats, conc.Stats)
		}
		if !slices.Equal(seq.Decisions, conc.Decisions) {
			t.Errorf("%dx%d r=%d: decisions differ:\nseq  %v\nconc %v", tc.w, tc.h, tc.r, seq.Decisions, conc.Decisions)
		}
	}
}

func TestCrashedSourceNeverStarts(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	source := net.IDOf(grid.C(0, 0))
	res, err := Run(Config{
		Net:     net,
		Factory: floodFactory(source, 1),
		CrashAt: map[topology.NodeID]int{source: 0},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := res.Commits(); n != 0 {
		t.Errorf("nothing should decide when the source is crashed, got %d", n)
	}
	if res.Stats.Broadcasts != 0 {
		t.Errorf("no broadcasts expected, got %d", res.Stats.Broadcasts)
	}
}

func TestMaxRoundsBounds(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	factory := func(id topology.NodeID) sim.Process { return &babbler{} }
	res, err := Run(Config{Net: net, Factory: factory, MaxRounds: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Quiesced {
		t.Error("babbler must not quiesce")
	}
	if res.Stats.Rounds != 5 {
		t.Errorf("rounds = %d, want 5", res.Stats.Rounds)
	}
}

type babbler struct{ lastRound int }

func (b *babbler) Init(ctx sim.Context) { ctx.Broadcast(sim.Message{Kind: sim.KindValue}) }
func (b *babbler) Deliver(ctx sim.Context, _ topology.NodeID, _ sim.Message) {
	if ctx.Round() > b.lastRound {
		b.lastRound = ctx.Round()
		ctx.Broadcast(sim.Message{Kind: sim.KindValue})
	}
}
func (b *babbler) Decided() (byte, bool) { return 0, false }

// panicker panics on its first delivery at one node and floods elsewhere.
type panicker struct {
	floodProc
	bad topology.NodeID
}

func (p *panicker) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if ctx.Self() == p.bad {
		panic("synthetic process bug")
	}
	p.floodProc.Deliver(ctx, from, m)
}

// TestProcessPanicReraisedOnCaller pins the panic contract: a process that
// panics on a worker must not kill the program. Run re-raises it on the
// calling goroutine, where a caller's recover can contain it, with the
// worker's stack, and no worker outlives the run.
func TestProcessPanicReraisedOnCaller(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	source := net.IDOf(grid.C(0, 0))
	bad := net.IDOf(grid.C(3, 3))
	flood := floodFactory(source, 1)
	factory := func(id topology.NodeID) sim.Process {
		return &panicker{floodProc: *flood(id).(*floodProc), bad: bad}
	}
	before := goruntime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, _ = Run(Config{Net: net, Factory: factory})
	}()
	pe, ok := recovered.(*PanicError)
	if !ok {
		t.Fatalf("Run re-raised %T (%v), want *PanicError", recovered, recovered)
	}
	if pe.Node != bad || pe.Value != "synthetic process bug" {
		t.Errorf("PanicError{Node: %d, Value: %v}, want node %d and the process's value", pe.Node, pe.Value, bad)
	}
	if !strings.Contains(string(pe.Stack), "(*panicker).Deliver") {
		t.Errorf("the stack does not reach the panicking Deliver:\n%s", pe.Stack)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panic, %d before: a worker outlived Run", n, before)
	}
}

// TestRoundsAllocateNothing pins the round loop's point: a run allocates
// and synchronises once per round, not once per receiving node, so its
// allocation count does not grow with its round count.
func TestRoundsAllocateNothing(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	allocs := func(rounds int) float64 {
		cfg := Config{Net: net, MaxRounds: rounds, Factory: func(topology.NodeID) sim.Process { return &babbler{} }}
		return testing.AllocsPerRun(5, func() {
			res, err := Run(cfg)
			if err != nil || res.Stats.Rounds != rounds {
				t.Fatalf("Run: %d rounds, err %v; want %d", res.Stats.Rounds, err, rounds)
			}
		})
	}
	short, long := allocs(8), allocs(64)
	t.Logf("%.0f allocations at 8 rounds, %.0f at 64", short, long)
	if long > short+4 {
		t.Errorf("%.0f allocations at 64 rounds but %.0f at 8: rounds allocate", long, short)
	}
}
