package rbcast

// JSON/text encodings for the public scenario types, and the canonical
// scenario fingerprint that identifies a (Config, FaultPlan) pair across
// processes.
//
// Two deliberately different contracts live here:
//
//   - The JSON encoding is *lossless*: every enum marshals to its stable
//     text name ("bv4", "linf", "greedy-band", …), the zero value marshals
//     to the empty string, and decoding restores exactly the value that was
//     encoded — defaults stay implicit, as in Go code.
//
//   - The fingerprint is *canonical*: documented zero-value aliases
//     (Metric 0 ≡ MetricLinf, Placement 0 ≡ PlaceNone, Strategy 0 ≡
//     StrategyCrash, Retransmit < 1 ≡ 1, float -0 ≡ 0) are normalized
//     before hashing, so two spellings of the same scenario share one
//     cache entry.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// MarshalText encodes the protocol name ("flood", "cpa", "bv4", "bv2",
// "bracha", "bracha-auth"). The zero value encodes as "".
func (p Protocol) MarshalText() ([]byte, error) {
	return enumText("protocol", int(p), p.String())
}

// UnmarshalText decodes a protocol name; "" restores the zero value.
func (p *Protocol) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*p = 0
	case "flood":
		*p = ProtocolFlood
	case "cpa":
		*p = ProtocolCPA
	case "bv4":
		*p = ProtocolBV4
	case "bv2":
		*p = ProtocolBV2
	case "bracha":
		*p = ProtocolBracha
	case "bracha-auth":
		*p = ProtocolBrachaAuth
	default:
		return fmt.Errorf("rbcast: unknown protocol %q", text)
	}
	return nil
}

// MarshalText encodes the topology family name ("torus", "rgg", "custom").
// The zero value encodes as "".
func (t Topology) MarshalText() ([]byte, error) {
	return enumText("topology", int(t), t.String())
}

// UnmarshalText decodes a topology family name; "" restores the zero value.
func (t *Topology) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*t = 0
	case "torus":
		*t = TopologyTorus
	case "rgg":
		*t = TopologyRGG
	case "custom":
		*t = TopologyCustom
	default:
		return fmt.Errorf("rbcast: unknown topology %q", text)
	}
	return nil
}

// MarshalText encodes the metric name ("linf", "l2"). The zero value
// encodes as "".
func (m Metric) MarshalText() ([]byte, error) {
	return enumText("metric", int(m), m.String())
}

// UnmarshalText decodes a metric name; "" restores the zero value.
func (m *Metric) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*m = 0
	case "linf":
		*m = MetricLinf
	case "l2":
		*m = MetricL2
	default:
		return fmt.Errorf("rbcast: unknown metric %q", text)
	}
	return nil
}

// MarshalText encodes the placement name ("none", "band",
// "checkerboard-band", "greedy-band", "random-bounded", "percolation").
// The zero value encodes as "".
func (p Placement) MarshalText() ([]byte, error) {
	return enumText("placement", int(p), p.String())
}

// UnmarshalText decodes a placement name; "" restores the zero value.
func (p *Placement) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*p = 0
	case "none":
		*p = PlaceNone
	case "band":
		*p = PlaceBand
	case "checkerboard-band":
		*p = PlaceCheckerboardBand
	case "greedy-band":
		*p = PlaceGreedyBand
	case "random-bounded":
		*p = PlaceRandomBounded
	case "percolation":
		*p = PlacePercolation
	default:
		return fmt.Errorf("rbcast: unknown placement %q", text)
	}
	return nil
}

// MarshalText encodes the strategy name ("crash", "silent", "liar",
// "forger", "spoofer", "equivocator"). The zero value encodes as "".
func (s Strategy) MarshalText() ([]byte, error) {
	return enumText("strategy", int(s), s.String())
}

// UnmarshalText decodes a strategy name; "" restores the zero value.
func (s *Strategy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*s = 0
	case "crash":
		*s = StrategyCrash
	case "silent":
		*s = StrategySilent
	case "liar":
		*s = StrategyLiar
	case "forger":
		*s = StrategyForger
	case "spoofer":
		*s = StrategySpoofer
	case "equivocator":
		*s = StrategyEquivocator
	default:
		return fmt.Errorf("rbcast: unknown strategy %q", text)
	}
	return nil
}

// MarshalText encodes the event kind name ("broadcast", "delivery",
// "evidence-eval", "crash", "spoof", "commit"). The zero value encodes as
// "".
func (k EventKind) MarshalText() ([]byte, error) {
	return enumText("event kind", int(k), k.String())
}

// UnmarshalText decodes an event kind name; "" restores the zero value.
func (k *EventKind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*k = 0
	case "broadcast":
		*k = EventBroadcast
	case "delivery":
		*k = EventDelivery
	case "evidence-eval":
		*k = EventEvidenceEval
	case "crash":
		*k = EventCrash
	case "spoof":
		*k = EventSpoof
	case "commit":
		*k = EventCommit
	default:
		return fmt.Errorf("rbcast: unknown event kind %q", text)
	}
	return nil
}

// MarshalText encodes the commit rule name ("source", "direct", "quorum",
// "disjoint-chains", "votes", "flood", "ready-quorum"). The zero value
// encodes as "".
func (r CommitRule) MarshalText() ([]byte, error) {
	return enumText("commit rule", int(r), r.String())
}

// UnmarshalText decodes a commit rule name; "" restores the zero value.
func (r *CommitRule) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*r = 0
	case "source":
		*r = RuleSource
	case "direct":
		*r = RuleDirect
	case "quorum":
		*r = RuleQuorum
	case "disjoint-chains":
		*r = RuleDisjointChains
	case "votes":
		*r = RuleVotes
	case "flood":
		*r = RuleFlood
	case "ready-quorum":
		*r = RuleReadyQuorum
	default:
		return fmt.Errorf("rbcast: unknown commit rule %q", text)
	}
	return nil
}

// EncodeTrace writes the events as JSON Lines: one compact JSON object per
// event, each terminated by '\n'. The encoding is lossless — DecodeTrace
// restores exactly the slice that was encoded — and byte-deterministic for
// a given slice, so equal traces encode to equal bytes.
func EncodeTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			return fmt.Errorf("rbcast: encoding trace event %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// DecodeTrace reads a JSON Lines trace produced by EncodeTrace. Blank
// lines are skipped; an empty stream decodes to nil.
func DecodeTrace(r io.Reader) ([]TraceEvent, error) {
	sc := bufio.NewScanner(r)
	// Commit events on dense grids carry whole chain families; allow
	// lines well beyond the 64 KiB scanner default.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []TraceEvent
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("rbcast: decoding trace line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rbcast: reading trace: %w", err)
	}
	return events, nil
}

// enumText is the shared MarshalText body: zero encodes as "", names pass
// through, and the String() fallback spelling for out-of-range values
// (which always contains a parenthesis) is an encoding error rather than a
// payload that could never decode.
func enumText(kind string, raw int, name string) ([]byte, error) {
	if raw == 0 {
		return nil, nil
	}
	if strings.ContainsRune(name, '(') {
		return nil, fmt.Errorf("rbcast: cannot encode invalid %s %d", kind, raw)
	}
	return []byte(name), nil
}

// MarshalText encodes the node as "x,y", which also makes Node usable as a
// JSON map key (Result.Decisions).
func (n Node) MarshalText() ([]byte, error) {
	return []byte(strconv.Itoa(n.X) + "," + strconv.Itoa(n.Y)), nil
}

// UnmarshalText decodes the "x,y" form.
func (n *Node) UnmarshalText(text []byte) error {
	s := string(text)
	comma := strings.IndexByte(s, ',')
	if comma < 0 {
		return fmt.Errorf("rbcast: node %q is not of the form \"x,y\"", s)
	}
	x, errX := strconv.Atoi(s[:comma])
	y, errY := strconv.Atoi(s[comma+1:])
	if errX != nil || errY != nil {
		return fmt.Errorf("rbcast: node %q is not of the form \"x,y\"", s)
	}
	n.X, n.Y = x, y
	return nil
}

// fingerprintVersion prefixes every canonical serialization; bump it
// whenever the encoding below changes shape, so stale caches miss instead
// of serving results computed under different semantics.
const fingerprintVersion = "rbcast/fp/v1"

// Fingerprint returns the canonical scenario fingerprint: the hex SHA-256
// of a versioned, field-ordered serialization of (Config, Plan). It is
// deterministic across processes, releases and hosts, so it can key
// persistent result caches; rbcastd uses it for its LRU cache and
// single-flight deduplication.
//
// Scenarios that differ only in a documented zero-value alias (Metric 0 vs
// MetricLinf, Placement 0 vs PlaceNone, Strategy 0 vs StrategyCrash,
// Retransmit 0 vs 1, a float field's -0 vs 0) fingerprint identically;
// any semantic field change yields a different fingerprint. Invalid enum
// values still fingerprint (via their numeric fallback spelling) —
// validation is Run's job, not the hash's.
func (j Job) Fingerprint() string {
	sum := sha256.Sum256(j.canonical())
	return hex.EncodeToString(sum[:])
}

// canonical renders the versioned serialization Fingerprint hashes. Fields
// appear in fixed order under fixed names; floats use the exact hex form so
// no two distinct values collide and no formatting mode drifts.
func (j Job) canonical() []byte {
	c, p := j.Config, j.Plan
	if c.Metric == 0 {
		c.Metric = MetricLinf
	}
	if c.Retransmit < 1 {
		c.Retransmit = 1
	}
	if p.Placement == 0 {
		p.Placement = PlaceNone
	}
	if p.Strategy == 0 {
		p.Strategy = StrategyCrash
	}
	var b strings.Builder
	b.WriteString(fingerprintVersion)
	b.WriteByte('\n')
	fmt.Fprintf(&b,
		"config:width=%d;height=%d;radius=%d;metric=%s;protocol=%s;t=%d;value=%d;source_x=%d;source_y=%d;max_rounds=%d;concurrent=%t;exact_evidence=%t;loss_rate=%s;retransmit=%d;medium_seed=%d;spoofing_possible=%t;lock_step=%t\n",
		c.Width, c.Height, c.Radius, c.Metric, c.Protocol, c.T, c.Value,
		c.SourceX, c.SourceY, c.MaxRounds, c.Concurrent, c.ExactEvidence,
		canonicalFloat(c.LossRate), c.Retransmit, c.MediumSeed,
		c.SpoofingPossible, c.LockStep)
	fmt.Fprintf(&b,
		"plan:placement=%s;strategy=%s;budget=%d;count=%d;probability=%s;crash_round=%d;seed=%d\n",
		p.Placement, p.Strategy, p.Budget, p.Count,
		canonicalFloat(p.Probability), p.CrashRound, p.Seed)
	// Trace joined the Config after fp/v1 shipped; a conditional trailer
	// keeps every pre-existing (untraced) scenario's fingerprint stable
	// while still separating traced results (which carry Result.Trace)
	// from untraced ones in caches.
	if c.Trace {
		b.WriteString("trace:enabled\n")
	}
	// Topology families joined after fp/v1 shipped and follow the same
	// conditional-trailer discipline: torus scenarios (Topology zero or
	// TopologyTorus — a documented alias) emit nothing, so every
	// pre-family fingerprint is stable, while the non-torus families hash
	// their defining parameters. Custom graphs hash a canonical edge list
	// (endpoints low-first, lexicographically sorted) so any spelling of
	// the same graph shares a cache entry.
	if c.Topology != 0 && c.Topology != TopologyTorus {
		fmt.Fprintf(&b, "topology:family=%s;nodes=%d;rgg_radius=%s;topology_seed=%d;source=%d\n",
			c.Topology, c.Nodes, canonicalFloat(c.RGGRadius), c.TopologySeed, c.Source)
		if c.Graph != nil {
			fmt.Fprintf(&b, "graph:nodes=%d;edges=%s\n", c.Graph.Nodes, canonicalEdges(c.Graph.Edges))
		}
	}
	return []byte(b.String())
}

// executionKeyVersion prefixes execution keys; bump it whenever the
// normalization rules below change.
const executionKeyVersion = "rbcast/exec/v1"

// executionKey returns the canonical *execution* identity of a job: two
// valid jobs with equal keys produce byte-identical Results (Metrics.Wall
// aside), because they differ only in parameters the execution provably
// never consumes. The sweep engine (sweep.go) groups grid elements by this
// key so each distinct execution is simulated once.
//
// The key is strictly coarser than Fingerprint: beyond the fingerprint's
// zero-value aliases it erases parameters that are dead for the specific
// scenario. Every normalization below is justified against the actual data
// flow (faultplan.go materialize, sim.Engine, the protocol factories); when
// in doubt a parameter is kept, which only costs sharing, never correctness.
// Keys of invalid jobs may collide across differently-invalid spellings;
// that is fine because grouped elements share the representative's
// validation error too.
func (j Job) executionKey() string {
	c, p := j.Config, j.Plan
	placement := p.Placement
	if placement == 0 {
		placement = PlaceNone
	}
	strategy := p.Strategy
	if strategy == 0 {
		strategy = StrategyCrash
	}
	validStrategy := strategy >= StrategyCrash && strategy <= StrategyEquivocator
	// Placement-dead knobs. Seed only feeds the randomized placements
	// (random-bounded, percolation); Count only random-bounded;
	// Probability only percolation; Budget only the budgeted placements
	// (greedy-band, random-bounded).
	if placement != PlaceRandomBounded && placement != PlacePercolation {
		p.Seed = 0
	}
	if placement != PlaceRandomBounded {
		p.Count = 0
	}
	if placement != PlacePercolation {
		p.Probability = 0
	}
	budgeted := placement == PlaceGreedyBand || placement == PlaceRandomBounded
	if !budgeted {
		p.Budget = 0
	}
	// With no faults placed, the strategy and crash schedule act on an
	// empty set: any *valid* strategy behaves identically (an invalid one
	// still errors, so it must keep its own key).
	if placement == PlaceNone && validStrategy {
		p.Strategy = StrategyCrash
		p.CrashRound = 0
	}
	// CrashRound is consumed only by StrategyCrash (materialize builds the
	// crash map from it); the Byzantine strategies ignore it.
	if validStrategy && strategy != StrategyCrash {
		p.CrashRound = 0
	}
	// Flood ignores T in the protocol (§VII: reachability is the sole
	// criterion) and Result never echoes it — but T still resolves the
	// fault budget when a budgeted placement runs with Budget 0, and
	// validation rejects T < 0 and T > protocol.MaxT, so only the
	// provably-dead case collapses.
	if c.Protocol == ProtocolFlood && c.T > 0 && c.T <= protocol.MaxT && !(budgeted && p.Budget == 0) {
		c.T = 0
	}
	// The medium's rng exists only when LossRate > 0, so MediumSeed is dead
	// on the ideal medium — except under Concurrent, where validation
	// rejects a nonzero MediumSeed outright.
	if c.LossRate == 0 && !c.Concurrent {
		c.MediumSeed = 0
	}
	return executionKeyVersion + "\n" + string(Job{Config: c, Plan: p}.canonical())
}

// canonicalEdges renders an undirected edge list canonically: each edge
// low-endpoint-first, the list sorted, rendered "a-b,c-d".
func canonicalEdges(edges [][2]int) string {
	norm := make([][2]int, len(edges))
	for i, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		norm[i] = [2]int{a, b}
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	var b strings.Builder
	for i, e := range norm {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(e[0]))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e[1]))
	}
	return b.String()
}

// canonicalFloat renders a float exactly (hexadecimal mantissa/exponent),
// immune to decimal rounding differences. -0 renders as 0: the float
// fields are only ever compared, and -0 == 0, so the two run identically.
func canonicalFloat(f float64) string {
	if f == 0 {
		f = 0 // drops the sign of -0
	}
	return strconv.FormatFloat(f, 'x', -1, 64)
}
