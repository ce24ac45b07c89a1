package rbcast

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bounds"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Metric selects the distance metric defining radio neighborhoods.
type Metric int

const (
	// MetricLinf is the L∞ (Chebyshev) metric — the paper's exact-threshold
	// setting. This is the default.
	MetricLinf Metric = iota + 1
	// MetricL2 is the Euclidean metric of §VIII.
	MetricL2
)

// metricNames is Metric's name table: the wire name of each value and
// the grid metric it selects.
var metricNames = enumTable[Metric, grid.Metric]{"Metric", "metric", []enumEntry[grid.Metric]{
	{"linf", grid.Linf},
	{"l2", grid.L2},
}}

// String names the metric for logs, cache keys and metric labels.
func (m Metric) String() string { return metricNames.name(m) }

// MarshalText encodes the metric's name. The zero value encodes as "".
func (m Metric) MarshalText() ([]byte, error) { return metricNames.marshal(m) }

// UnmarshalText decodes a metric name; "" restores the zero value.
func (m *Metric) UnmarshalText(text []byte) error { return metricNames.unmarshal(text, m) }

// Protocol selects a broadcast protocol.
type Protocol int

const (
	// ProtocolFlood is crash-stop flooding (§VII).
	ProtocolFlood Protocol = iota + 1
	// ProtocolCPA is the simple protocol (§IX): commit on t+1 matching
	// neighbor announcements.
	ProtocolCPA
	// ProtocolBV4 is the paper's 4-hop indirect-report protocol (§VI),
	// exact-threshold optimal in L∞.
	ProtocolBV4
	// ProtocolBV2 is the simplified 2-hop protocol (§VI-B).
	ProtocolBV2
	// ProtocolBracha is Bracha's ECHO/READY reliable broadcast — the
	// message-passing literature's quorum protocol, run under the radio
	// harness for head-to-head comparison with the paper's locally-bounded
	// protocols. T is the global quorum bound f (N ≥ 3T+1 is required):
	// echo on VAL, ready on N−T ECHOs or T+1 READYs, deliver on 2T+1
	// READYs. Endorsements are counted by attributed physical sender, so
	// quorums need an effectively complete graph.
	ProtocolBracha
	// ProtocolBrachaAuth is the authenticated Bracha variant: simulated
	// signatures pin VAL provenance and name ECHO/READY endorsers, and
	// honest nodes relay each distinct signed message once, so quorums
	// assemble across multi-hop relays on any connected graph.
	ProtocolBrachaAuth
)

// protocolNames is Protocol's name table: the wire name of each value and
// the internal protocol it selects.
var protocolNames = enumTable[Protocol, protocol.Kind]{"Protocol", "protocol", []enumEntry[protocol.Kind]{
	{"flood", protocol.Flood},
	{"cpa", protocol.CPA},
	{"bv4", protocol.BV4},
	{"bv2", protocol.BV2},
	{"bracha", protocol.Bracha},
	{"bracha-auth", protocol.BrachaAuth},
}}

// String names the protocol.
func (p Protocol) String() string { return protocolNames.name(p) }

// MarshalText encodes the protocol's name. The zero value encodes as "".
func (p Protocol) MarshalText() ([]byte, error) { return protocolNames.marshal(p) }

// UnmarshalText decodes a protocol name; "" restores the zero value.
func (p *Protocol) UnmarshalText(text []byte) error { return protocolNames.unmarshal(text, p) }

// Config describes a broadcast scenario. The JSON encoding (see encode.go)
// uses snake_case keys and stable enum names, omits zero-valued fields, and
// round-trips losslessly.
type Config struct {
	// Topology selects the network family; the zero value is the torus.
	// Each family has its own parameter fields (torus: Width, Height,
	// Radius, Metric, SourceX, SourceY; rgg: Nodes, RGGRadius,
	// TopologySeed, Source; custom: Graph, Source) and validation rejects
	// fields belonging to another family. BV4/BV2 and the band placements
	// are torus-only; Flood, CPA and the Bracha family run on every
	// family.
	Topology Topology `json:"topology,omitempty"`
	// Width and Height are the torus dimensions (≥ 2·Radius+1 each).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Radius is the transmission radius r (≥ 1).
	Radius int `json:"radius,omitempty"`
	// Metric defaults to MetricLinf.
	Metric Metric `json:"metric,omitempty"`
	// Nodes is the TopologyRGG node count (≥ 1).
	Nodes int `json:"nodes,omitempty"`
	// RGGRadius is the TopologyRGG connection radius on the unit torus,
	// in (0, 1].
	RGGRadius float64 `json:"rgg_radius,omitempty"`
	// TopologySeed keys the TopologyRGG placement stream. Identical
	// (Nodes, RGGRadius, TopologySeed) build identical graphs on every
	// platform; see EXPERIMENTS.md for the reproducibility contract.
	TopologySeed int64 `json:"topology_seed,omitempty"`
	// Graph is the TopologyCustom adjacency list.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Source is the source node id for non-torus families (torus configs
	// locate the source with SourceX/SourceY instead).
	Source int `json:"source,omitempty"`
	// Protocol selects the broadcast protocol (required).
	Protocol Protocol `json:"protocol,omitempty"`
	// T is the assumed per-neighborhood fault bound (ignored by flooding).
	T int `json:"t,omitempty"`
	// Value is the source's binary input (0 or 1).
	Value byte `json:"value,omitempty"`
	// SourceX, SourceY locate the source (default: the origin).
	SourceX int `json:"source_x,omitempty"`
	SourceY int `json:"source_y,omitempty"`
	// MaxRounds bounds the execution (0 = a large default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Concurrent runs the concurrent engine, whose workers process each
	// round's deliveries in parallel, instead of the deterministic
	// sequential one. Results are identical; the concurrent engine
	// exercises real parallelism.
	Concurrent bool `json:"concurrent,omitempty"`
	// ExactEvidence switches ProtocolBV4 to exhaustive evidence
	// evaluation (expensive; for validation at small radii). The default
	// is the designated-family ("earmarked") mode from the constructive
	// proof.
	ExactEvidence bool `json:"exact_evidence,omitempty"`
	// LossRate enables the unreliable-channel extension (§II/§X): each
	// transmission is lost at each receiver independently with this
	// probability. Zero is the paper's ideal medium.
	LossRate float64 `json:"loss_rate,omitempty"`
	// Retransmit is the blind retransmission count of the probabilistic
	// local-broadcast primitive (< 1 means 1).
	Retransmit int `json:"retransmit,omitempty"`
	// MediumSeed drives the loss process deterministically.
	MediumSeed int64 `json:"medium_seed,omitempty"`
	// SpoofingPossible drops the no-address-spoofing assumption (§X
	// what-if): receivers attribute messages to the claimed sender.
	// Combine with StrategySpoofer to reproduce the safety collapse the
	// paper warns about.
	SpoofingPossible bool `json:"spoofing_possible,omitempty"`
	// LockStep defers every broadcast to the next round (one hop per
	// round) instead of the default TDMA-frame semantics where later
	// slots react within the same frame. Decisions are identical; round
	// numbers become hop counts, which makes wavefront traces readable.
	LockStep bool `json:"lock_step,omitempty"`
	// Trace records a structured execution trace — every broadcast,
	// delivery, evidence evaluation, crash, spoof and commit, the latter
	// carrying its Certificate — into Result.Trace. Off by default; the
	// engines and protocols pay nothing when unset. Traces from the
	// concurrent engine interleave protocol events nondeterministically
	// within a round (see Result.Trace).
	Trace bool `json:"trace,omitempty"`
}

// validate rejects invalid public options up front, so every
// misconfiguration surfaces as an rbcast error instead of one from an
// internal layer — or, worse, silently skewed results.
func (c Config) validate() error {
	if err := c.validateTopology(); err != nil {
		return err
	}
	if c.Value > 1 {
		return fmt.Errorf("rbcast: value must be 0 or 1, got %d", c.Value)
	}
	if c.T < 0 {
		return fmt.Errorf("rbcast: negative fault bound T = %d", c.T)
	}
	if c.T > protocol.MaxT {
		return fmt.Errorf("rbcast: fault bound T = %d exceeds 2³¹−1 = %d", c.T, protocol.MaxT)
	}
	if !(c.LossRate >= 0 && c.LossRate < 1) { // NaN fails both bounds
		return fmt.Errorf("rbcast: loss rate %v outside [0,1)", c.LossRate)
	}
	if c.Retransmit < 0 {
		return fmt.Errorf("rbcast: negative retransmission count Retransmit = %d", c.Retransmit)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("rbcast: negative round bound MaxRounds = %d", c.MaxRounds)
	}
	if c.Concurrent {
		// The concurrent engine supports only the paper's ideal
		// medium and is inherently lock-step; reject every
		// sequential-engine-only option explicitly rather than silently
		// dropping it.
		switch {
		case c.LossRate > 0:
			return fmt.Errorf("rbcast: the lossy-medium extension requires the sequential engine")
		case c.Retransmit > 1:
			return fmt.Errorf("rbcast: Retransmit requires the sequential engine (the concurrent engine models the ideal medium)")
		case c.MediumSeed != 0:
			return fmt.Errorf("rbcast: MediumSeed requires the sequential engine (the concurrent engine models the ideal medium)")
		case c.LockStep:
			return fmt.Errorf("rbcast: LockStep only configures the sequential engine (the concurrent engine is always lock-step)")
		}
	}
	return nil
}

// kind maps the public protocol enum to the internal one.
func (c Config) kind() (protocol.Kind, error) {
	k, ok := protocolNames.value(c.Protocol)
	if !ok {
		return 0, fmt.Errorf("rbcast: invalid protocol %d", int(c.Protocol))
	}
	return k, nil
}

// quorum reports whether the protocol is of the global-quorum family, whose
// thresholds require N ≥ 3T+1 on the materialized network.
func (c Config) quorum() bool {
	return c.Protocol == ProtocolBracha || c.Protocol == ProtocolBrachaAuth
}

// Run executes the scenario against the fault plan and reports the outcome.
func Run(cfg Config, plan FaultPlan) (Result, error) {
	return RunContext(context.Background(), cfg, plan)
}

// RunContext is Run with a wall-clock bound: when ctx expires or is
// cancelled, the engines stop at the next round boundary and RunContext
// returns the partial Result together with an error wrapping ErrDeadline
// (and the context's own error). This is the serving path's defense against
// adversarial or mis-sized scenarios — MaxRounds bounds protocol time,
// the context bounds machine time. Configuration errors still return a
// zero Result, so callers distinguish "rejected" from "truncated" with
// errors.Is(err, ErrDeadline).
func RunContext(ctx context.Context, cfg Config, plan FaultPlan) (Result, error) {
	pr, err := prepare(cfg, plan)
	if err != nil {
		return Result{}, err
	}
	net, faulty := pr.net, pr.faulty
	collector := metrics.New()
	if cfg.Trace {
		collector = metrics.NewRecording()
		// Crash events come from the fault plan, not the engines: record
		// them up front, in id order, so every trace opens with the
		// adversary's schedule.
		for _, id := range faulty.faulty {
			if round, crashed := faulty.crash[id]; crashed {
				collector.Crash(round, id)
			}
		}
	}
	params := pr.params(collector)

	rc := pr.runConfig(params, ctx)
	start := time.Now()
	var out protocol.Outcome
	if cfg.Concurrent {
		out, err = runConcurrent(rc)
	} else {
		out, err = protocol.Run(rc)
	}
	if err != nil && !errors.Is(err, sim.ErrDeadline) {
		return Result{}, err
	}
	wall := time.Since(start)
	res := newResult(net, out, faulty)
	res.Metrics = newMetrics(collector.Snapshot(), wall)
	res.Trace = newTraceEvents(net, collector.Events())
	if err != nil {
		// The partial result travels with the typed deadline error; the
		// chain keeps the engine's round count and the context cause.
		return res, fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return res, nil
}

// prepared is one validated, materialized scenario: everything RunContext
// and the sweep driver (sweep.go) need before choosing how to execute it.
type prepared struct {
	cfg    Config
	net    topology.Graph
	kind   protocol.Kind
	source topology.NodeID
	mode   protocol.EvidenceMode
	faulty materialized
	medium sim.Medium
}

// prepare validates the configuration, materializes the network and the
// fault assignment, and resolves the internal protocol selection. It is the
// shared front half of every execution path; errors here mean the scenario
// was rejected (zero Result), never truncated.
func prepare(cfg Config, plan FaultPlan) (prepared, error) {
	if err := cfg.validate(); err != nil {
		return prepared{}, err
	}
	net, err := cfg.network()
	if err != nil {
		return prepared{}, err
	}
	kind, err := cfg.kind()
	if err != nil {
		return prepared{}, err
	}
	if cfg.quorum() {
		// The quorum thresholds only intersect when N ≥ 3T+1; the check
		// needs the materialized network's size, so it lives here rather
		// than in validate.
		if n := net.Size(); n < 3*cfg.T+1 {
			return prepared{}, fmt.Errorf("rbcast: protocol %s needs N ≥ 3T+1 for quorum intersection, got N = %d, T = %d",
				cfg.Protocol, n, cfg.T)
		}
	}
	source, err := cfg.sourceID(net)
	if err != nil {
		return prepared{}, err
	}
	plan.budgetForPlan = cfg.T
	faulty, err := plan.materialize(net, source)
	if err != nil {
		return prepared{}, err
	}
	mode := protocol.Designated
	if cfg.ExactEvidence {
		mode = protocol.Exact
	}
	return prepared{
		cfg:    cfg,
		net:    net,
		kind:   kind,
		source: source,
		mode:   mode,
		faulty: faulty,
		medium: sim.Medium{LossRate: cfg.LossRate, Retransmit: cfg.Retransmit, Seed: cfg.MediumSeed},
	}, nil
}

// params assembles the protocol parameters around a run's own collector
// (it is per-execution, unlike the scenario itself).
func (p prepared) params(collector *metrics.Collector) protocol.Params {
	return protocol.Params{
		Net:              p.net,
		Source:           p.source,
		Value:            p.cfg.Value,
		T:                p.cfg.T,
		Mode:             p.mode,
		SpoofingPossible: p.cfg.SpoofingPossible,
		Metrics:          collector,
	}
}

// runConfig assembles the run configuration. The concurrent engine reads
// only its protocol, fault and bound fields: validate rejects the
// sequential-only options under Concurrent.
func (p prepared) runConfig(params protocol.Params, ctx context.Context) protocol.RunConfig {
	mode := sim.ModeFrame
	if p.cfg.LockStep {
		mode = sim.ModeNextRound
	}
	return protocol.RunConfig{
		Kind:      p.kind,
		Params:    params,
		Byzantine: p.faulty.byzantine,
		Crash:     p.faulty.crash,
		MaxRounds: p.cfg.MaxRounds,
		Medium:    p.medium,
		Mode:      mode,
		Context:   ctx,
	}
}

// runConcurrent executes on the concurrent engine (internal/runtime); its
// processes and scoring are the sequential engine's.
func runConcurrent(rc protocol.RunConfig) (protocol.Outcome, error) {
	factory, err := rc.Factory()
	if err != nil {
		return protocol.Outcome{}, err
	}
	res, err := runtime.Run(runtime.Config{
		Net:       rc.Params.Net,
		Factory:   factory,
		CrashAt:   rc.Crash,
		MaxRounds: rc.MaxRounds,
		Metrics:   rc.Params.Metrics,
		Context:   rc.Context,
	})
	if err != nil && !errors.Is(err, sim.ErrDeadline) {
		return protocol.Outcome{}, err
	}
	return protocol.Score(rc, res), err
}

// Threshold re-exports: the closed-form fault-tolerance bounds of the paper
// as functions of the transmission radius r.

// MaxByzantineLinf is the largest t tolerated by ProtocolBV4/ProtocolBV2 in
// L∞ (Theorem 1): the largest integer below r(2r+1)/2.
func MaxByzantineLinf(r int) int { return bounds.MaxByzantineLinf(r) }

// MinImpossibleByzantineLinf is ⌈r(2r+1)/2⌉, the smallest Byzantine t at
// which reliable broadcast is impossible in L∞ (Koo 2004).
func MinImpossibleByzantineLinf(r int) int { return bounds.MinImpossibleByzantineLinf(r) }

// MaxCrashLinf is r(2r+1)−1, the largest crash-stop t tolerable in L∞
// (Theorem 5).
func MaxCrashLinf(r int) int { return bounds.MaxCrashLinf(r) }

// MinImpossibleCrashLinf is r(2r+1), the crash-stop impossibility bound
// (Theorem 4).
func MinImpossibleCrashLinf(r int) int { return bounds.MinImpossibleCrashLinf(r) }

// MaxCPALinf is ⌊2r²/3⌋, the simple protocol's bound (Theorem 6).
func MaxCPALinf(r int) int { return bounds.MaxCPALinf(r) }

// KooCPALinf is Koo's earlier bound for the simple protocol in L∞, which
// Theorem 6 dominates asymptotically.
func KooCPALinf(r int) int { return bounds.KooCPALinf(r) }

// ApproxByzantineL2 is the paper's informal L2 achievability value
// ⌊0.23πr²⌋ (§VIII).
func ApproxByzantineL2(r int) int { return bounds.ApproxByzantineL2(r) }

// ApproxImpossibleByzantineL2 is the informal L2 impossibility value
// ⌈0.3πr²⌉ (§VIII).
func ApproxImpossibleByzantineL2(r int) int { return bounds.ApproxImpossibleByzantineL2(r) }

// ApproxCrashL2 is the informal L2 crash-stop achievability value ⌊0.46πr²⌋.
func ApproxCrashL2(r int) int { return bounds.ApproxCrashL2(r) }

// ApproxImpossibleCrashL2 is the informal L2 crash-stop impossibility value
// ⌈0.6πr²⌉.
func ApproxImpossibleCrashL2(r int) int { return bounds.ApproxImpossibleCrashL2(r) }

// NeighborhoodSize returns the closed-neighborhood population for the metric
// and radius — the denominator of the paper's "fraction of a neighborhood"
// statements.
func NeighborhoodSize(m Metric, r int) (int, error) {
	gm, ok := metricNames.value(m)
	if !ok {
		return 0, fmt.Errorf("rbcast: invalid metric %d", int(m))
	}
	return gm.ClosedBallSize(r), nil
}
