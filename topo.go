package rbcast

// Topology families: the public enum selecting which topology.Graph family a
// Config materializes, the GraphSpec adjacency-list payload for custom
// graphs, and the family-aware construction/caching behind Config.network().
// The torus family keeps its historical spelling — a zero Topology with
// Width/Height/Radius set is exactly the pre-family Config — so existing
// scenarios (and their fingerprints; see encode.go) are untouched.

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/scache"
	"repro/internal/topology"
)

// Topology selects the network family.
type Topology int

const (
	// TopologyTorus is the paper's W×H torus with uniform radius-r
	// neighborhoods under Metric. The zero value is an alias for it, so
	// pre-family configurations keep their meaning (and fingerprints).
	TopologyTorus Topology = iota + 1
	// TopologyRGG is a seeded random geometric graph on the unit torus:
	// Nodes points placed by a deterministic PRNG stream keyed by
	// TopologySeed, adjacent when their toroidal Euclidean distance is at
	// most RGGRadius. The "noisy torus" bridge between the paper's grid
	// and physical deployments; identical (Nodes, RGGRadius, TopologySeed)
	// yield identical graphs on every platform.
	TopologyRGG
	// TopologyCustom is an explicit adjacency list supplied as Graph — the
	// escape hatch for the planar / loosely-connected instances of the
	// Maurer–Tixeuil line of work.
	TopologyCustom
)

// topologyNames is Topology's name table.
var topologyNames = enumTable[Topology, struct{}]{"Topology", "topology", []enumEntry[struct{}]{
	{name: "torus"},
	{name: "rgg"},
	{name: "custom"},
}}

// String names the topology family.
func (t Topology) String() string { return topologyNames.name(t) }

// MarshalText encodes the family's name. The zero value encodes as "".
func (t Topology) MarshalText() ([]byte, error) { return topologyNames.marshal(t) }

// UnmarshalText decodes a topology family name; "" restores the zero value.
func (t *Topology) UnmarshalText(text []byte) error { return topologyNames.unmarshal(text, t) }

// GraphSpec is the explicit adjacency list of a TopologyCustom network.
// Nodes are identified by dense indices 0..Nodes-1; every edge is an
// unordered pair of distinct endpoints. The JSON encoding is the natural
// one: {"nodes": 5, "edges": [[0,1],[1,2]]}.
type GraphSpec struct {
	// Nodes is the node count (≥ 1).
	Nodes int `json:"nodes"`
	// Edges lists undirected edges; duplicates and self-loops are rejected.
	Edges [][2]int `json:"edges,omitempty"`
}

// family resolves the zero-value alias: an unset Topology is the torus.
func (c Config) family() Topology {
	if c.Topology == 0 {
		return TopologyTorus
	}
	return c.Topology
}

// validateTopology rejects family/field mismatches up front so that a
// Config never silently ignores fields belonging to another family.
func (c Config) validateTopology() error {
	switch c.family() {
	case TopologyTorus:
		if c.Nodes != 0 {
			return fmt.Errorf("rbcast: Nodes configures the rgg topology, not the torus")
		}
		if c.RGGRadius != 0 {
			return fmt.Errorf("rbcast: RGGRadius configures the rgg topology, not the torus")
		}
		if c.TopologySeed != 0 {
			return fmt.Errorf("rbcast: TopologySeed configures the rgg topology, not the torus")
		}
		if c.Graph != nil {
			return fmt.Errorf("rbcast: Graph configures the custom topology, not the torus")
		}
		if c.Source != 0 {
			return fmt.Errorf("rbcast: Source identifies non-torus sources; use SourceX/SourceY on the torus")
		}
	case TopologyRGG:
		if err := c.rejectTorusFields(); err != nil {
			return err
		}
		if c.Graph != nil {
			return fmt.Errorf("rbcast: Graph configures the custom topology, not rgg")
		}
		if c.Nodes < 1 {
			return fmt.Errorf("rbcast: rgg topology needs Nodes ≥ 1, got %d", c.Nodes)
		}
		if !(c.RGGRadius > 0 && c.RGGRadius <= 1) {
			return fmt.Errorf("rbcast: rgg topology needs RGGRadius in (0, 1], got %v", c.RGGRadius)
		}
	case TopologyCustom:
		if err := c.rejectTorusFields(); err != nil {
			return err
		}
		if c.Nodes != 0 || c.RGGRadius != 0 || c.TopologySeed != 0 {
			return fmt.Errorf("rbcast: Nodes/RGGRadius/TopologySeed configure the rgg topology, not custom")
		}
		if c.Graph == nil {
			return fmt.Errorf("rbcast: custom topology needs a Graph adjacency list")
		}
	default:
		return fmt.Errorf("rbcast: invalid topology %d", int(c.Topology))
	}
	if c.family() != TopologyTorus {
		switch c.Protocol {
		case ProtocolBV4, ProtocolBV2:
			// One format across every torus-only rejection (here, the
			// placement gate, and internal/protocol): the requesting
			// protocol or placement, then the offending family.
			return fmt.Errorf("rbcast: protocol %s requires the torus topology, got family %q",
				c.Protocol, c.family())
		}
		if c.ExactEvidence {
			return fmt.Errorf("rbcast: ExactEvidence configures the torus-only bv4 protocol")
		}
	}
	return nil
}

// rejectTorusFields names the first torus-only field set alongside a
// non-torus family.
func (c Config) rejectTorusFields() error {
	family := c.family()
	switch {
	case c.Width != 0:
		return fmt.Errorf("rbcast: Width configures the torus topology, not %s", family)
	case c.Height != 0:
		return fmt.Errorf("rbcast: Height configures the torus topology, not %s", family)
	case c.Radius != 0:
		return fmt.Errorf("rbcast: Radius configures the torus topology, not %s", family)
	case c.Metric != 0:
		return fmt.Errorf("rbcast: Metric configures the torus topology, not %s", family)
	case c.SourceX != 0 || c.SourceY != 0:
		return fmt.Errorf("rbcast: SourceX/SourceY locate torus sources; use Source on %s", family)
	}
	return nil
}

// networkCacheSize bounds networks. A 32×32 r = 2 torus costs about half
// a flood run on it to build, so a repeated network is worth keeping; the
// bound stops a stream of distinct parameters, say rgg seeds from rbcastd
// clients, from growing the process without limit.
const networkCacheSize = 64

// networks shares immutable graphs across runs: the adjacency and
// closed-neighborhood rows are precomputed once per distinct constructor
// parameters and reused by every later Run/RunSweepJobs call, including
// rbcastd cache misses, which repeatedly rebuild the same networks. It is
// an LRU keyed by those parameters, so the least recently used network
// goes first. Torus and rgg graphs are cached (their keys are tiny);
// custom graphs are not: their defining payload is the adjacency list
// itself, so caching would key a potentially huge graph by a potentially
// huge key for no construction win.
var networks = scache.New[topology.Graph](networkCacheSize)

// network builds (or fetches the shared precomputed) topology for the config.
func (c Config) network() (topology.Graph, error) {
	switch c.family() {
	case TopologyTorus:
		return c.torusNetwork()
	case TopologyRGG:
		var buf [64]byte
		key := appendInt(buf[:0], "rgg:", c.Nodes)
		key = appendFloat(key, ",", c.RGGRadius) // exact; -0 and 0 build one graph
		key = appendInt(key, ",", c.TopologySeed)
		g, err, _ := networks.DoOutcome(string(key), func() (topology.Graph, error) {
			g, err := topology.NewGeometric(c.Nodes, c.RGGRadius, c.TopologySeed)
			if err != nil {
				return nil, err
			}
			return g, nil
		})
		return g, err
	case TopologyCustom:
		return topology.NewCustom(c.Graph.Nodes, c.Graph.Edges)
	default:
		return nil, fmt.Errorf("rbcast: invalid topology %d", int(c.Topology))
	}
}

// torusNetwork builds (or fetches) the torus family's network.
func (c Config) torusNetwork() (*topology.Network, error) {
	metric := c.Metric
	if metric == 0 {
		metric = MetricLinf
	}
	m, ok := metricNames.value(metric)
	if !ok {
		return nil, fmt.Errorf("rbcast: invalid metric %d", int(c.Metric))
	}
	var buf [64]byte
	key := appendInt(buf[:0], "torus:", c.Width)
	key = appendInt(key, "x", c.Height)
	key = appendInt(key, ",", c.Radius)
	key = appendString(key, ",", metric.String())
	g, err, _ := networks.DoOutcome(string(key), func() (topology.Graph, error) {
		net, err := topology.New(grid.Torus{W: c.Width, H: c.Height}, m, c.Radius)
		if err != nil {
			return nil, err
		}
		return net, nil
	})
	if err != nil {
		return nil, err
	}
	return g.(*topology.Network), nil
}

// sourceID resolves the configured source to a node id on the materialized
// graph: grid coordinates on the torus (wrapped, as before), the Source
// index elsewhere.
func (c Config) sourceID(g topology.Graph) (topology.NodeID, error) {
	if net, ok := g.(*topology.Network); ok {
		return net.IDOf(grid.C(c.SourceX, c.SourceY)), nil
	}
	if c.Source < 0 || c.Source >= g.Size() {
		return 0, fmt.Errorf("rbcast: source node %d out of range [0, %d)", c.Source, g.Size())
	}
	return topology.NodeID(c.Source), nil
}
