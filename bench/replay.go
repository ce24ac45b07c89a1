package main

// The engine split by replay. Timing every Deliver from inside the loop
// would cost more than the deliveries themselves, so the split is made
// from outside: a scenario is rebuilt from public constructors, one
// untimed pass records every Init/Deliver call the sequential engine
// makes, and then the engine (T_engine) and a replay of the recorded
// calls onto fresh processes with no engine (T_replay) are timed
// separately. protocol.handle is T_replay; sim.sched is the rest.

import (
	"fmt"
	"sort"
	"time"

	rbcast "repro"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rebuilt is one sequential-engine scenario assembled from the packages
// the library itself uses, plus the library's Result for it.
type rebuilt struct {
	net    topology.Graph
	honest sim.ProcessFactory
	byz    map[topology.NodeID]fault.Strategy
	cfg    sim.Config // everything but Factory
	res    rbcast.Result
}

var protocolKinds = map[rbcast.Protocol]protocol.Kind{
	rbcast.ProtocolFlood:      protocol.Flood,
	rbcast.ProtocolCPA:        protocol.CPA,
	rbcast.ProtocolBV4:        protocol.BV4,
	rbcast.ProtocolBV2:        protocol.BV2,
	rbcast.ProtocolBracha:     protocol.Bracha,
	rbcast.ProtocolBrachaAuth: protocol.BrachaAuth,
}

var faultStrategies = map[rbcast.Strategy]fault.Strategy{
	rbcast.StrategySilent:      fault.Silent,
	rbcast.StrategyLiar:        fault.Liar,
	rbcast.StrategyForger:      fault.Forger,
	rbcast.StrategySpoofer:     fault.Spoofer,
	rbcast.StrategyEquivocator: fault.Equivocator,
}

// rebuild runs the job through the library once and reassembles the same
// execution: the network from its constructor, the honest factory from
// protocol.NewFactory, and the faulty nodes from Result.Faulty with the
// plan's strategy or crash round.
func rebuild(job rbcast.Job) (*rebuilt, error) {
	c, p := job.Config, job.Plan
	if c.Concurrent {
		return nil, fmt.Errorf("the concurrent engine has no recordable delivery order")
	}
	res, err := rbcast.Run(c, p)
	if err != nil {
		return nil, err
	}
	rb := &rebuilt{res: res, byz: map[topology.NodeID]fault.Strategy{}}
	var source topology.NodeID
	var idOf func(rbcast.Node) topology.NodeID
	switch c.Topology {
	case 0, rbcast.TopologyTorus:
		m := grid.Linf
		if c.Metric == rbcast.MetricL2 {
			m = grid.L2
		}
		t, err := topology.New(grid.Torus{W: c.Width, H: c.Height}, m, c.Radius)
		if err != nil {
			return nil, err
		}
		rb.net, source = t, t.IDOf(grid.C(c.SourceX, c.SourceY))
		idOf = func(n rbcast.Node) topology.NodeID { return t.IDOf(grid.C(n.X, n.Y)) }
	case rbcast.TopologyRGG:
		if rb.net, err = topology.NewGeometric(c.Nodes, c.RGGRadius, c.TopologySeed); err != nil {
			return nil, err
		}
	case rbcast.TopologyCustom:
		if rb.net, err = topology.NewCustom(c.Graph.Nodes, c.Graph.Edges); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown topology %v", c.Topology)
	}
	if idOf == nil {
		source = topology.NodeID(c.Source)
		idOf = func(n rbcast.Node) topology.NodeID { return topology.NodeID(n.X) }
	}
	mode := protocol.Designated
	if c.ExactEvidence {
		mode = protocol.Exact
	}
	collector := metrics.New()
	rb.honest, err = protocol.NewFactory(protocolKinds[c.Protocol], protocol.Params{
		Net: rb.net, Source: source, Value: c.Value, T: c.T, Mode: mode,
		SpoofingPossible: c.SpoofingPossible, Metrics: collector,
	})
	if err != nil {
		return nil, err
	}
	crash := map[topology.NodeID]int{}
	for _, n := range res.Faulty {
		if s, ok := faultStrategies[p.Strategy]; ok {
			rb.byz[idOf(n)] = s
		} else {
			crash[idOf(n)] = p.CrashRound
		}
	}
	delivery := sim.ModeFrame
	if c.LockStep {
		delivery = sim.ModeNextRound
	}
	rb.cfg = sim.Config{
		Net:       rb.net,
		Mode:      delivery,
		CrashAt:   crash,
		MaxRounds: c.MaxRounds,
		Medium:    sim.Medium{LossRate: c.LossRate, Retransmit: c.Retransmit, Seed: c.MediumSeed},
		Metrics:   collector,
	}
	return rb, nil
}

// process is the plain factory: adversaries where the plan put them,
// honest protocol processes elsewhere.
func (rb *rebuilt) process(id topology.NodeID) sim.Process {
	if s, ok := rb.byz[id]; ok {
		return s.NewProcess(id)
	}
	return rb.honest(id)
}

// runEngine builds and runs the sequential engine over factory f.
func (rb *rebuilt) runEngine(f sim.ProcessFactory) (sim.Result, error) {
	cfg := rb.cfg
	cfg.Factory = f
	return sim.Run(cfg)
}

// call is one recorded process invocation; from < 0 marks Init.
type call struct {
	msg   sim.Message
	node  topology.NodeID
	from  topology.NodeID
	round int32
}

// recording is an engine run's process-call sequence.
type recording struct {
	created []topology.NodeID // factory order
	calls   []call
	queued  int // broadcasts the processes queued
	engine  sim.Result
}

// recordingCtx counts the broadcasts a process queues during a call.
type recordingCtx struct {
	sim.Context
	rec *recording
}

func (c recordingCtx) Broadcast(m sim.Message) {
	c.rec.queued++
	c.Context.Broadcast(m)
}

// recordingProc logs every call before forwarding it.
type recordingProc struct {
	sim.Process
	id  topology.NodeID
	rec *recording
}

func (p recordingProc) Init(ctx sim.Context) {
	p.rec.calls = append(p.rec.calls, call{node: p.id, from: -1})
	p.Process.Init(recordingCtx{ctx, p.rec})
}

func (p recordingProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	p.rec.calls = append(p.rec.calls, call{msg: m, node: p.id, from: from, round: int32(ctx.Round())})
	p.Process.Deliver(recordingCtx{ctx, p.rec}, from, m)
}

// record runs the engine once through a wrapping factory.
func (rb *rebuilt) record() (*recording, error) {
	rec := &recording{}
	res, err := rb.runEngine(func(id topology.NodeID) sim.Process {
		rec.created = append(rec.created, id)
		return recordingProc{Process: rb.process(id), id: id, rec: rec}
	})
	rec.engine = res
	return rec, err
}

// replayCtx stands in for the engine during a replay: broadcasts are
// counted and dropped.
type replayCtx struct {
	id     topology.NodeID
	round  int
	queued int
}

func (c *replayCtx) Self() topology.NodeID { return c.id }
func (c *replayCtx) Round() int            { return c.round }
func (c *replayCtx) Broadcast(sim.Message) { c.queued++ }

// decision is one node's first commitment in a replay.
type decision struct {
	value   byte
	decided bool
	round   int
}

// replay feeds the recorded calls to fresh processes in the recorded
// order, polling Decided after each call exactly as the engine does.
func (rb *rebuilt) replay(rec *recording) ([]decision, int) {
	procs := make([]sim.Process, rb.net.Size())
	for _, id := range rec.created {
		procs[id] = rb.process(id)
	}
	dec := make([]decision, len(procs))
	ctx := &replayCtx{}
	for i := range rec.calls {
		c := &rec.calls[i]
		ctx.id, ctx.round = c.node, int(c.round)
		p := procs[c.node]
		if c.from < 0 {
			p.Init(ctx)
		} else {
			p.Deliver(ctx, c.from, c.msg)
		}
		if !dec[c.node].decided {
			if v, ok := p.Decided(); ok {
				dec[c.node] = decision{value: v, decided: true, round: ctx.round}
			}
		}
	}
	return dec, ctx.queued
}

// check compares the rebuilt engine and a replay with the library Result.
func (rb *rebuilt) check(rec *recording, dec []decision, queued int) error {
	st, res := rec.engine.Stats, rb.res
	if st.Rounds != res.Rounds || st.Broadcasts != res.Broadcasts || st.Deliveries != res.Deliveries {
		return fmt.Errorf("rebuilt engine ran %d rounds, %d broadcasts, %d deliveries; library %d, %d, %d",
			st.Rounds, st.Broadcasts, st.Deliveries, res.Rounds, res.Broadcasts, res.Deliveries)
	}
	if queued != rec.queued {
		return fmt.Errorf("replay queued %d broadcasts, engine run %d", queued, rec.queued)
	}
	for id := range dec {
		x, y := rb.net.Label(topology.NodeID(id))
		want := res.Decisions[rbcast.Node{X: x, Y: y}]
		got := dec[id]
		if got.decided != want.Decided || (got.decided && (got.value != want.Value || got.round != want.Round)) {
			return fmt.Errorf("node (%d,%d): replay decided=%t value=%d round=%d, library %+v",
				x, y, got.decided, got.value, got.round, want)
		}
	}
	return nil
}

// replayRow is one scenario's engine split.
type replayRow struct {
	Scenario      string  `json:"scenario"`
	Engine        string  `json:"engine"`
	EngineUS      float64 `json:"engine_us"`
	ReplayUS      float64 `json:"replay_us,omitempty"`
	SchedShare    float64 `json:"sched_share,omitempty"`
	Deliveries    int     `json:"deliveries"`
	EvidenceEvals int     `json:"evidence_evals"`
}

const (
	// splitReps interleaved engine/replay timings are taken per scenario;
	// each repeats its run until it lasts at least splitBatch.
	splitReps  = 3
	splitBatch = 10 * time.Millisecond
)

// split measures one scenario. Concurrent-engine scenarios report only
// their library run time.
func split(s scenario) (replayRow, error) {
	row := replayRow{Scenario: s.name, Engine: "sequential"}
	if s.job.Config.Concurrent {
		row.Engine = "concurrent"
		var res rbcast.Result
		var err error
		us := timed(func() { res, err = rbcast.Run(s.job.Config, s.job.Plan) })
		row.EngineUS = us
		row.Deliveries, row.EvidenceEvals = res.Deliveries, res.Metrics.EvidenceEvals
		return row, err
	}
	rb, err := rebuild(s.job)
	if err != nil {
		return row, err
	}
	rec, err := rb.record()
	if err != nil {
		return row, err
	}
	dec, queued := rb.replay(rec)
	if err := rb.check(rec, dec, queued); err != nil {
		return row, err
	}
	var runErr error
	row.EngineUS = timed(func() {
		if _, err := rb.runEngine(rb.process); err != nil {
			runErr = err
		}
	})
	row.ReplayUS = timed(func() { rb.replay(rec) })
	row.SchedShare = 1 - row.ReplayUS/row.EngineUS
	row.Deliveries, row.EvidenceEvals = rb.res.Deliveries, rb.res.Metrics.EvidenceEvals
	return row, runErr
}

// timed returns the median over splitReps batches of fn's duration in
// microseconds, each batch repeating fn until it lasts splitBatch. A
// first call that already lasts a batch counts as the first batch.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	d := time.Since(t)
	var per []float64
	n := 1
	if d >= splitBatch {
		per = append(per, float64(d)/float64(time.Microsecond))
	} else {
		n = int(splitBatch/max(d, time.Microsecond)) + 1
	}
	for len(per) < splitReps {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(n)/float64(time.Microsecond))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// engineShares folds the sequential rows of one scenario set: the share
// of engine time outside the processes, the share inside them, replay
// time per delivery, and replay time per evidence evaluation over the
// rows that evaluate evidence (an upper bound: handling time includes
// everything else those processes do).
func engineShares(rows []replayRow) (sched, handle, nsPerDelivery, usPerEval float64) {
	var engine, replay, deliveries, evalReplay, evals float64
	for _, r := range rows {
		if r.Engine != "sequential" {
			continue
		}
		engine += r.EngineUS
		replay += r.ReplayUS
		deliveries += float64(r.Deliveries)
		if r.EvidenceEvals > 0 {
			evalReplay += r.ReplayUS
			evals += float64(r.EvidenceEvals)
		}
	}
	handle = replay / engine
	sched = 1 - handle
	nsPerDelivery = replay * 1e3 / deliveries
	if evals > 0 {
		usPerEval = evalReplay / evals
	}
	return sched, handle, nsPerDelivery, usPerEval
}
