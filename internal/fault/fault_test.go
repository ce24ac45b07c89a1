package fault

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
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

func TestNewBudgetValidation(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	if _, err := NewBudget(nil, 1); err == nil {
		t.Error("nil network must be rejected")
	}
	if _, err := NewBudget(net, -1); err == nil {
		t.Error("negative bound must be rejected")
	}
	b, err := NewBudget(net, 0)
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	if b.CanAdd(0) {
		t.Error("t=0 admits no faults")
	}
}

func TestBudgetAddAndQuery(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	b, err := NewBudget(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := net.IDOf(grid.C(5, 5))
	if err := b.Add(id); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !b.IsFaulty(id) || b.Total() != 1 {
		t.Error("state not updated")
	}
	if err := b.Add(id); err == nil {
		t.Error("double add must fail")
	}
	// Second fault next to the first is fine at t=2.
	if err := b.Add(net.IDOf(grid.C(5, 6))); err != nil {
		t.Fatalf("second Add: %v", err)
	}
	// Third in the same neighborhood must fail.
	if b.CanAdd(net.IDOf(grid.C(5, 4))) {
		t.Error("third fault in one closed nbd must be rejected at t=2")
	}
	if err := b.Add(net.IDOf(grid.C(5, 4))); err == nil {
		t.Error("Add must enforce the budget")
	}
}

func TestBudgetMatchesExhaustiveCheck(t *testing.T) {
	// Property: any placement accepted by the incremental budget passes the
	// exhaustive neighborhood check with the same bound.
	net := testNet(t, 12, 12, 2)
	f := func(seed int64, tt uint8) bool {
		bound := int(tt%5) + 1
		faulty, err := RandomBounded(net, bound, -1, seed)
		if err != nil {
			return false
		}
		return MaxPerNeighborhood(net, faulty) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBandCounts(t *testing.T) {
	net := testNet(t, 12, 10, 2)
	band := Band(net, 3, 2)
	if len(band) != 2*10 {
		t.Fatalf("|band| = %d, want 20", len(band))
	}
	for _, id := range band {
		c := net.CoordOf(id)
		if c.X != 3 && c.X != 4 {
			t.Errorf("band node at x=%d", c.X)
		}
	}
	// Wrapping: a band starting at the last column wraps to column 0.
	wrapped := Band(net, 11, 2)
	for _, id := range wrapped {
		c := net.CoordOf(id)
		if c.X != 11 && c.X != 0 {
			t.Errorf("wrapped band node at x=%d", c.X)
		}
	}
}

func TestBandIsFig8Construction(t *testing.T) {
	// Fig 8 / Theorem 4: a width-r crash band contains at most r(2r+1)
	// faults per closed neighborhood — exactly the impossibility bound.
	for _, r := range []int{1, 2, 3} {
		w := 6*r + 6
		net := testNet(t, w, 4*r+4, r)
		band := Band(net, 2, r)
		maxF := MaxPerNeighborhood(net, band)
		if want := bounds.MinImpossibleCrashLinf(r); maxF != want {
			t.Errorf("r=%d: band max-per-nbd = %d, want %d", r, maxF, want)
		}
	}
}

func TestCheckerboardBandIsFig13Construction(t *testing.T) {
	// Fig 13 / Koo impossibility: the checkerboard half of a width-r band
	// has at most ⌈r(2r+1)/2⌉ faults per closed neighborhood.
	for _, r := range []int{1, 2, 3} {
		w := 6*r + 6
		net := testNet(t, w, 4*r+4, r)
		cb, err := CheckerboardBand(net, 2, r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		maxF := MaxPerNeighborhood(net, cb)
		if want := bounds.MinImpossibleByzantineLinf(r); maxF != want {
			t.Errorf("r=%d: checkerboard max-per-nbd = %d, want %d", r, maxF, want)
		}
	}
}

func TestCheckerboardBandNeedsEvenHeight(t *testing.T) {
	net := testNet(t, 12, 9, 2)
	if _, err := CheckerboardBand(net, 0, 2); err == nil {
		t.Error("odd torus height must be rejected (parity breaks across the wrap)")
	}
}

func TestTorusBands(t *testing.T) {
	net := testNet(t, 14, 10, 2)
	ids, err := TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
		return Band(net, x0, 2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Columns W/4 = 3 and 3W/4 = 10, each band in Band's order.
	want := append(Band(net, 3, 2), Band(net, 10, 2)...)
	if len(ids) != len(want) {
		t.Fatalf("%d nodes, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("node %d at %v, want %v", i, net.CoordOf(ids[i]), net.CoordOf(want[i]))
		}
	}
	odd := testNet(t, 14, 9, 2)
	if _, err := TorusBands(odd, func(x0 int) ([]topology.NodeID, error) {
		return CheckerboardBand(odd, x0, 2)
	}); err == nil {
		t.Error("a band construction's error must be returned")
	}
}

func TestGreedyBandRespectsBudget(t *testing.T) {
	net := testNet(t, 18, 12, 2)
	for _, bound := range []int{1, 4, 9, 10} {
		faulty, err := GreedyBand(net, 4, 2, bound)
		if err != nil {
			t.Fatalf("t=%d: %v", bound, err)
		}
		if got := MaxPerNeighborhood(net, faulty); got > bound {
			t.Errorf("t=%d: max-per-nbd = %d", bound, got)
		}
		if len(faulty) == 0 && bound > 0 {
			t.Errorf("t=%d: greedy band placed nothing", bound)
		}
		// All faults lie in the band columns 4..5.
		for _, id := range faulty {
			c := net.CoordOf(id)
			if c.X != 4 && c.X != 5 {
				t.Errorf("t=%d: fault outside band at %v", bound, c)
			}
		}
	}
}

func TestRandomBoundedTarget(t *testing.T) {
	net := testNet(t, 12, 12, 1)
	faulty, err := RandomBounded(net, 3, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) != 10 {
		t.Errorf("placed %d faults, want 10", len(faulty))
	}
	if MaxPerNeighborhood(net, faulty) > 3 {
		t.Error("budget violated")
	}
	// Determinism under a fixed seed.
	again, err := RandomBounded(net, 3, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faulty {
		if faulty[i] != again[i] {
			t.Fatal("RandomBounded not deterministic for fixed seed")
		}
	}
}

func TestPercolation(t *testing.T) {
	net := testNet(t, 20, 20, 1)
	source := net.IDOf(grid.C(0, 0))
	faulty, err := Percolation(net, 0.3, source, 7)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(faulty)) / float64(net.Size())
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("failure fraction %v far from 0.3", frac)
	}
	for _, id := range faulty {
		if id == source {
			t.Error("source must never fail")
		}
	}
	if _, err := Percolation(net, 1.5, source, 7); err == nil {
		t.Error("probability > 1 must be rejected")
	}
	if _, err := Percolation(net, math.NaN(), source, 7); err == nil {
		t.Error("a NaN probability must be rejected")
	}
	if all, err := Percolation(net, 1.0, source, 7); err != nil || len(all) != net.Size()-1 {
		t.Errorf("pf=1 must fail everyone but the source: %d, err=%v", len(all), err)
	}
}

func TestStrategyString(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{Silent, "silent"},
		{Liar, "liar"},
		{Forger, "forger"},
		{Strategy(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// captureCtx records broadcasts for strategy unit tests.
type captureCtx struct {
	self topology.NodeID
	out  []sim.Message
}

func (c *captureCtx) Self() topology.NodeID   { return c.self }
func (c *captureCtx) Round() int              { return 1 }
func (c *captureCtx) Broadcast(m sim.Message) { c.out = append(c.out, m) }

func TestSilentStrategy(t *testing.T) {
	p := Silent.NewProcess(3)
	ctx := &captureCtx{self: 3}
	p.Init(ctx)
	p.Deliver(ctx, 1, sim.Message{Kind: sim.KindValue, Value: 1})
	if len(ctx.out) != 0 {
		t.Error("silent node transmitted")
	}
	if _, ok := p.Decided(); ok {
		t.Error("adversaries never decide")
	}
}

func TestLiarStrategy(t *testing.T) {
	p := Liar.NewProcess(3)
	ctx := &captureCtx{self: 3}
	p.Init(ctx)
	p.Deliver(ctx, 1, sim.Message{Kind: sim.KindValue, Value: 1})
	if len(ctx.out) != 1 {
		t.Fatalf("liar sent %d messages, want 1", len(ctx.out))
	}
	m := ctx.out[0]
	if m.Kind != sim.KindCommitted || m.Value != 0 || m.Origin != 3 {
		t.Errorf("liar sent %v", m)
	}
	// Second stimulus: stays quiet.
	p.Deliver(ctx, 2, sim.Message{Kind: sim.KindCommitted, Origin: 2, Value: 1})
	if len(ctx.out) != 1 {
		t.Error("liar must announce only once")
	}
}

func TestForgerStrategy(t *testing.T) {
	p := Forger.NewProcess(3)
	ctx := &captureCtx{self: 3}
	p.Init(ctx)
	p.Deliver(ctx, 7, sim.Message{Kind: sim.KindCommitted, Origin: 7, Value: 1})
	// Expect: flipped COMMITTED + forged HEARD about node 7.
	if len(ctx.out) != 2 {
		t.Fatalf("forger sent %d messages, want 2", len(ctx.out))
	}
	if ctx.out[0].Kind != sim.KindCommitted || ctx.out[0].Value != 0 {
		t.Errorf("first message %v", ctx.out[0])
	}
	h := ctx.out[1]
	if h.Kind != sim.KindHeard || h.Origin != 7 || h.Value != 0 ||
		len(h.Path) != 1 || h.Path[0] != 3 {
		t.Errorf("forged HEARD %v", h)
	}
	// A HEARD chain is extended with a flipped value.
	p.Deliver(ctx, 9, sim.Message{
		Kind: sim.KindHeard, Origin: 5, Value: 1, Path: []topology.NodeID{9},
	})
	if len(ctx.out) != 3 {
		t.Fatalf("forger sent %d messages, want 3", len(ctx.out))
	}
	ext := ctx.out[2]
	if ext.Value != 0 || len(ext.Path) != 2 || ext.Path[1] != 3 {
		t.Errorf("extended forgery %v", ext)
	}
	// Chains at the relay cap are not extended.
	p.Deliver(ctx, 9, sim.Message{
		Kind: sim.KindHeard, Origin: 5, Value: 1,
		Path: []topology.NodeID{9, 8, 7},
	})
	if len(ctx.out) != 3 {
		t.Error("forger must respect the relay cap")
	}
	// Duplicate forgeries are suppressed.
	p.Deliver(ctx, 9, sim.Message{
		Kind: sim.KindHeard, Origin: 5, Value: 1, Path: []topology.NodeID{9},
	})
	if len(ctx.out) != 3 {
		t.Error("duplicate forgery must be suppressed")
	}
}

func TestBudgetAccessors(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	b, err := NewBudget(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.T() != 3 {
		t.Errorf("T() = %d, want 3", b.T())
	}
}

func TestNewProcessAllStrategies(t *testing.T) {
	for _, s := range []Strategy{Silent, Liar, Forger, Spoofer, Strategy(0)} {
		p := s.NewProcess(1)
		if p == nil {
			t.Fatalf("%v: nil process", s)
		}
		// Adversaries never decide and tolerate Init.
		ctx := &captureCtx{self: 1}
		p.Init(ctx)
		if _, ok := p.Decided(); ok {
			t.Errorf("%v: adversary decided", s)
		}
	}
}

func TestFlip(t *testing.T) {
	if flip(0) != 1 || flip(1) != 0 || flip(7) != 0 {
		t.Error("flip broken")
	}
}

func TestSpooferStrategy(t *testing.T) {
	p := Spoofer.NewProcess(3)
	ctx := &captureCtx{self: 3}
	p.Init(ctx)
	// Hearing a value from node 9: impersonate it in both dialects.
	p.Deliver(ctx, 9, sim.Message{Kind: sim.KindValue, Value: 1})
	if len(ctx.out) != 2 {
		t.Fatalf("spoofer sent %d messages, want 2", len(ctx.out))
	}
	for _, m := range ctx.out {
		if !m.Spoofed || m.Claimed != 9 || m.Value != 0 {
			t.Errorf("bad spoof %+v", m)
		}
	}
	if ctx.out[0].Kind != sim.KindValue || ctx.out[1].Kind != sim.KindCommitted {
		t.Error("spoofer must impersonate in both message dialects")
	}
	// Each victim is impersonated once.
	p.Deliver(ctx, 9, sim.Message{Kind: sim.KindCommitted, Origin: 9, Value: 1})
	if len(ctx.out) != 2 {
		t.Error("victim impersonated twice")
	}
	// HEARD traffic is ignored.
	p.Deliver(ctx, 8, sim.Message{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{8}})
	if len(ctx.out) != 2 {
		t.Error("spoofer must ignore HEARD traffic")
	}
}

func TestGreedyBandZeroBudget(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	faulty, err := GreedyBand(net, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) != 0 {
		t.Errorf("t=0 must place nothing, got %d", len(faulty))
	}
	if _, err := GreedyBand(net, 2, 1, -1); err == nil {
		t.Error("negative budget must error")
	}
}

func TestRandomBoundedNegativeBudget(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	if _, err := RandomBounded(net, -1, 5, 1); err == nil {
		t.Error("negative budget must error")
	}
}

func TestForgeryKeyDistinguishes(t *testing.T) {
	base := sim.Message{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{1, 2}}
	variants := []sim.Message{
		{Kind: sim.KindCommitted, Origin: 7, Value: 1, Path: []topology.NodeID{1, 2}},
		{Kind: sim.KindHeard, Origin: 8, Value: 1, Path: []topology.NodeID{1, 2}},
		{Kind: sim.KindHeard, Origin: 7, Value: 0, Path: []topology.NodeID{1, 2}},
		{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{2, 1}},
		{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{1}},
		{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{1, 2, 0}},
		{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{1, 2}, Instance: 3},
	}
	for i, v := range variants {
		if newForgeryKey(v) == newForgeryKey(base) {
			t.Errorf("variant %d has same key as base", i)
		}
	}
	dup := sim.Message{Kind: sim.KindHeard, Origin: 7, Value: 1, Path: []topology.NodeID{1, 2}}
	if newForgeryKey(dup) != newForgeryKey(base) {
		t.Error("identical messages must share a key")
	}
}
