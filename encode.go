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
//     (Metric 0 ≡ MetricLinf on the torus, Placement 0 ≡ PlaceNone,
//     Strategy 0 ≡ StrategyCrash, Retransmit 0 ≡ 1, float -0 ≡ 0) are normalized
//     before hashing, so two spellings of the same scenario share one
//     cache entry.

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// enumTable is the one name table of a public enum: entries[i] holds the
// wire name of value i+1 and, for the enums that select an internal one,
// the internal value that name stands for. Zero has no entry. Each enum's
// String, MarshalText and UnmarshalText are one call into its table, so
// every name is spelled once.
type enumTable[E ~int, I any] struct {
	typ     string // the Go type, for String's "Protocol(9)" fallback
	noun    string // the enum as error texts name it
	entries []enumEntry[I]
}

// enumEntry is one value's wire name and the internal value it selects.
type enumEntry[I any] struct {
	name  string
	value I
}

// lookup returns v's entry; zero and out-of-range values have none.
func (t *enumTable[E, I]) lookup(v E) (enumEntry[I], bool) {
	if v < 1 || int(v) > len(t.entries) {
		return enumEntry[I]{}, false
	}
	return t.entries[v-1], true
}

// value returns the internal value v selects.
func (t *enumTable[E, I]) value(v E) (I, bool) {
	e, ok := t.lookup(v)
	return e.value, ok
}

// name is String: v's wire name, or for any other value the "Type(n)"
// spelling an invalid job's fingerprint embeds.
func (t *enumTable[E, I]) name(v E) string {
	if e, ok := t.lookup(v); ok {
		return e.name
	}
	return fmt.Sprintf("%s(%d)", t.typ, int(v))
}

// marshal is MarshalText: zero encodes as "", and an invalid value is an
// encoding error rather than a payload that could never decode.
func (t *enumTable[E, I]) marshal(v E) ([]byte, error) {
	if v == 0 {
		return nil, nil
	}
	e, ok := t.lookup(v)
	if !ok {
		return nil, fmt.Errorf("rbcast: cannot encode invalid %s %d", t.noun, int(v))
	}
	return []byte(e.name), nil
}

// unmarshal is UnmarshalText: "" restores the zero value.
func (t *enumTable[E, I]) unmarshal(text []byte, v *E) error {
	if len(text) == 0 {
		*v = 0
		return nil
	}
	for i, e := range t.entries {
		if e.name == string(text) {
			*v = E(i + 1)
			return nil
		}
	}
	return fmt.Errorf("rbcast: unknown %s %q", t.noun, text)
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
// MetricLinf on the torus, Placement 0 vs PlaceNone, Strategy 0 vs
// StrategyCrash, Retransmit 0 vs 1, a float field's -0 vs 0) fingerprint
// identically;
// any semantic field change yields a different fingerprint. Invalid jobs
// still fingerprint (an invalid enum via its numeric fallback spelling) —
// validation is Run's job, not the hash's — but never as a valid job does.
func (j Job) Fingerprint() string {
	var buf [512]byte
	sum := sha256.Sum256(j.appendCanonical(buf[:0]))
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// aliased resolves the documented zero-value aliases that Fingerprint and
// executionKey treat as one spelling: Topology 0 ≡ TopologyTorus, Metric
// 0 ≡ MetricLinf on the torus, Retransmit 0 ≡ 1, Placement 0 ≡ PlaceNone
// and Strategy 0 ≡ StrategyCrash. A float's -0 needs no alias here: it
// compares equal to 0, and appendFloat renders it as 0. A negative
// Retransmit, or a Metric on another family, is not an alias but a job
// validation rejects, so it keeps its own spelling.
func (j Job) aliased() (Config, FaultPlan) {
	c, p := j.Config, j.Plan
	if c.Topology == 0 {
		c.Topology = TopologyTorus
	}
	if c.Metric == 0 && c.Topology == TopologyTorus {
		c.Metric = MetricLinf
	}
	if c.Retransmit == 0 {
		c.Retransmit = 1
	}
	if p.Placement == 0 {
		p.Placement = PlaceNone
	}
	if p.Strategy == 0 {
		p.Strategy = StrategyCrash
	}
	return c, p
}

// appendCanonical appends the versioned serialization Fingerprint hashes.
// Fields appear in fixed order under fixed names, each "key=value" pair
// appended by one helper whose key carries its separator.
func (j Job) appendCanonical(b []byte) []byte {
	c, p := j.aliased()
	b = append(b, fingerprintVersion+"\n"...)
	b = appendInt(b, "config:width=", c.Width)
	b = appendInt(b, ";height=", c.Height)
	b = appendInt(b, ";radius=", c.Radius)
	metric := c.Metric
	if metric == 0 {
		metric = MetricLinf // how fp/v1 spells another family's unset Metric
	}
	b = appendString(b, ";metric=", metric.String())
	b = appendString(b, ";protocol=", c.Protocol.String())
	b = appendInt(b, ";t=", c.T)
	b = appendInt(b, ";value=", c.Value)
	b = appendInt(b, ";source_x=", c.SourceX)
	b = appendInt(b, ";source_y=", c.SourceY)
	b = appendInt(b, ";max_rounds=", c.MaxRounds)
	b = appendBool(b, ";concurrent=", c.Concurrent)
	b = appendBool(b, ";exact_evidence=", c.ExactEvidence)
	b = appendFloat(b, ";loss_rate=", c.LossRate)
	b = appendInt(b, ";retransmit=", c.Retransmit)
	b = appendInt(b, ";medium_seed=", c.MediumSeed)
	b = appendBool(b, ";spoofing_possible=", c.SpoofingPossible)
	b = appendBool(b, ";lock_step=", c.LockStep)
	b = append(b, '\n')
	b = appendString(b, "plan:placement=", p.Placement.String())
	b = appendString(b, ";strategy=", p.Strategy.String())
	b = appendInt(b, ";budget=", p.Budget)
	b = appendInt(b, ";count=", p.Count)
	b = appendFloat(b, ";probability=", p.Probability)
	b = appendInt(b, ";crash_round=", p.CrashRound)
	b = appendInt(b, ";seed=", p.Seed)
	b = append(b, '\n')
	// Trace joined the Config after fp/v1 shipped; a conditional trailer
	// keeps every pre-existing (untraced) scenario's fingerprint stable
	// while still separating traced results (which carry Result.Trace)
	// from untraced ones in caches.
	if c.Trace {
		b = append(b, "trace:enabled\n"...)
	}
	// Topology families joined after fp/v1 shipped and follow the same
	// conditional-trailer discipline: a valid torus scenario emits
	// nothing, so every pre-family fingerprint is stable, while the
	// non-torus families hash their defining parameters. A torus job that
	// sets one of those parameters is one validation rejects, and it
	// emits the trailer too, so it never shares a valid job's
	// fingerprint; so is another family's job that sets Metric, whose
	// trailer names it. Custom graphs hash a canonical edge list (see
	// appendGraph), so any spelling of the same graph shares a cache entry.
	if c.Topology != TopologyTorus || c.Nodes != 0 || c.RGGRadius != 0 || c.TopologySeed != 0 || c.Source != 0 || c.Graph != nil {
		b = appendString(b, "topology:family=", c.Topology.String())
		b = appendInt(b, ";nodes=", c.Nodes)
		b = appendFloat(b, ";rgg_radius=", c.RGGRadius)
		b = appendInt(b, ";topology_seed=", c.TopologySeed)
		b = appendInt(b, ";source=", c.Source)
		if c.Topology != TopologyTorus && c.Metric != 0 {
			b = appendString(b, ";metric=", c.Metric.String())
		}
		b = append(b, '\n')
		if c.Graph != nil {
			b = appendGraph(b, c.Graph)
		}
	}
	return b
}

// appendInt appends key and v in decimal.
func appendInt[T ~int | ~int64 | ~uint8](b []byte, key string, v T) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendString appends key and s.
func appendString(b []byte, key, s string) []byte {
	return append(append(b, key...), s...)
}

// appendBool appends key and "true" or "false".
func appendBool(b []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(b, key...), v)
}

// appendFloat appends key and f exactly (hexadecimal mantissa/exponent),
// immune to decimal rounding differences. -0 renders as 0: the float
// fields are only ever compared, and -0 == 0, so the two run identically.
func appendFloat(b []byte, key string, f float64) []byte {
	if f == 0 {
		f = 0 // drops the sign of -0
	}
	return strconv.AppendFloat(append(b, key...), f, 'x', -1, 64)
}

// appendGraph appends a custom graph's canonical line: its node count and
// its undirected edges, each low endpoint first, sorted, rendered
// "a-b,c-d".
func appendGraph(b []byte, g *GraphSpec) []byte {
	edges := make([][2]int, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = [2]int{min(e[0], e[1]), max(e[0], e[1])}
	}
	slices.SortFunc(edges, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	b = appendInt(b, "graph:nodes=", g.Nodes)
	b = append(b, ";edges="...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e[0]), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(e[1]), 10)
	}
	return append(b, '\n')
}

// execKey is a job's execution identity (see executionKey): the aliased
// Config and FaultPlan with their dead parameters erased, and a custom
// graph replaced by its graphIDs identity. It is comparable, so the sweep
// engine groups jobs by it with no rendering; it never leaves the process.
type execKey struct {
	config Config // Graph is always nil; graph identifies it
	plan   FaultPlan
	graph  int
}

// executionKey returns the canonical *execution* identity of a job: two
// valid jobs with equal keys produce byte-identical Results (Metrics.Wall
// aside), because they differ only in parameters the execution provably
// never consumes. The sweep engine (sweep.go) groups grid elements by this
// key so each distinct execution is simulated once. graphs interns the
// custom graphs of the jobs keyed together.
//
// The key is strictly coarser than Fingerprint: beyond the fingerprint's
// zero-value aliases it erases parameters that are dead for the specific
// scenario. Every normalization below is justified against the actual data
// flow (faultplan.go materialize, sim.Engine, the protocol factories); when
// in doubt a parameter is kept, which only costs sharing, never correctness.
// Keys of invalid jobs may collide across differently-invalid spellings;
// that is fine because grouped elements share the representative's
// validation error too. A NaN float makes a key unequal to every key,
// itself included, which costs that job its sharing and nothing else.
func (j Job) executionKey(graphs *graphIDs) execKey {
	c, p := j.aliased()
	placement, strategy := p.Placement, p.Strategy
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
	p.budgetForPlan = 0 // resolved by Run from Config.T
	graph := graphs.id(c.Graph)
	c.Graph = nil
	return execKey{config: c, plan: p, graph: graph}
}

// graphIDs interns custom graphs for executionKey: equal graphs, however
// their edge lists are spelled, get one id, and each distinct *GraphSpec
// is rendered once. Ids start at 1; 0 stands for no graph. The zero value
// is ready to use and allocates nothing until the first graph.
type graphIDs struct {
	bySpec map[*GraphSpec]int
	byLine map[string]int
}

// id returns g's identity.
func (ids *graphIDs) id(g *GraphSpec) int {
	if g == nil {
		return 0
	}
	if id, ok := ids.bySpec[g]; ok {
		return id
	}
	if ids.bySpec == nil {
		ids.bySpec, ids.byLine = make(map[*GraphSpec]int), make(map[string]int)
	}
	line := string(appendGraph(nil, g))
	id, ok := ids.byLine[line]
	if !ok {
		id = len(ids.byLine) + 1
		ids.byLine[line] = id
	}
	ids.bySpec[g] = id
	return id
}
