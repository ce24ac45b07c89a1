package rbcast

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// Test-only references for the encoders in encode.go: the fmt-rendered
// canonical serialization and the text execution key that the
// append-built bytes and the struct execution key replaced. The
// reference renders a torus job's other-family fields whenever one is
// set, another family's Metric whenever it is set, and aliases only
// Retransmit 0 to 1, so no invalid job shares a valid job's bytes.

// canonicalRef renders the canonical serialization with fmt.
func (j Job) canonicalRef() []byte {
	c, p := j.Config, j.Plan
	family := c.Topology
	if family == 0 {
		family = TopologyTorus
	}
	metric := c.Metric
	if metric == 0 {
		metric = MetricLinf
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
	var b strings.Builder
	b.WriteString(fingerprintVersion)
	b.WriteByte('\n')
	fmt.Fprintf(&b,
		"config:width=%d;height=%d;radius=%d;metric=%s;protocol=%s;t=%d;value=%d;source_x=%d;source_y=%d;max_rounds=%d;concurrent=%t;exact_evidence=%t;loss_rate=%s;retransmit=%d;medium_seed=%d;spoofing_possible=%t;lock_step=%t\n",
		c.Width, c.Height, c.Radius, metric, c.Protocol, c.T, c.Value,
		c.SourceX, c.SourceY, c.MaxRounds, c.Concurrent, c.ExactEvidence,
		canonicalFloatRef(c.LossRate), c.Retransmit, c.MediumSeed,
		c.SpoofingPossible, c.LockStep)
	fmt.Fprintf(&b,
		"plan:placement=%s;strategy=%s;budget=%d;count=%d;probability=%s;crash_round=%d;seed=%d\n",
		p.Placement, p.Strategy, p.Budget, p.Count,
		canonicalFloatRef(p.Probability), p.CrashRound, p.Seed)
	if c.Trace {
		b.WriteString("trace:enabled\n")
	}
	if family != TopologyTorus || c.Nodes != 0 || c.RGGRadius != 0 || c.TopologySeed != 0 || c.Source != 0 || c.Graph != nil {
		fmt.Fprintf(&b, "topology:family=%s;nodes=%d;rgg_radius=%s;topology_seed=%d;source=%d",
			family, c.Nodes, canonicalFloatRef(c.RGGRadius), c.TopologySeed, c.Source)
		if family != TopologyTorus && c.Metric != 0 {
			fmt.Fprintf(&b, ";metric=%s", c.Metric)
		}
		b.WriteByte('\n')
		if c.Graph != nil {
			fmt.Fprintf(&b, "graph:nodes=%d;edges=%s\n", c.Graph.Nodes, canonicalEdgesRef(c.Graph.Edges))
		}
	}
	return []byte(b.String())
}

// canonicalEdgesRef renders an undirected edge list canonically: each
// edge low-endpoint-first, the list sorted, rendered "a-b,c-d".
func canonicalEdgesRef(edges [][2]int) string {
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

// canonicalFloatRef renders a float exactly, -0 as 0.
func canonicalFloatRef(f float64) string {
	if f == 0 {
		f = 0
	}
	return strconv.FormatFloat(f, 'x', -1, 64)
}

// textExecutionKey is the execution key as canonical text: the job with
// its dead parameters erased, rendered by canonicalRef.
func (j Job) textExecutionKey() string {
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
	if placement == PlaceNone && validStrategy {
		p.Strategy = StrategyCrash
		p.CrashRound = 0
	}
	if validStrategy && strategy != StrategyCrash {
		p.CrashRound = 0
	}
	if c.Protocol == ProtocolFlood && c.T > 0 && c.T <= protocol.MaxT && !(budgeted && p.Budget == 0) {
		c.T = 0
	}
	if c.LossRate == 0 && !c.Concurrent {
		c.MediumSeed = 0
	}
	return string(Job{Config: c, Plan: p}.canonicalRef())
}

// CheckEncoders holds the encoders to their references on jobs: each
// job's append-built canonical bytes must equal canonicalRef's, and for
// every pair of jobs the struct execution keys (one graphIDs for all, as
// in one RunSweepJobs call) must be equal exactly when the text keys are.
// The pair check is linear: it requires every job to find the same first
// job of its class under both keys, which holds exactly when the two keys
// partition the jobs alike. A job with a NaN float has a struct key equal
// to no other, so the jobs must carry none. CheckEncoders is exported for
// the external tests, which can reach internal/scenarios.
func CheckEncoders(jobs []Job) error {
	var graphs graphIDs
	byStruct := make(map[execKey]int)
	byText := make(map[string]int)
	for i, j := range jobs {
		if got, want := j.appendCanonical(nil), j.canonicalRef(); !bytes.Equal(got, want) {
			return fmt.Errorf("job %d: canonical bytes\n%s\nreference\n%s", i, got, want)
		}
		sk, tk := j.executionKey(&graphs), j.textExecutionKey()
		s, ok := byStruct[sk]
		if !ok {
			s = i
			byStruct[sk] = i
		}
		tx, ok := byText[tk]
		if !ok {
			tx = i
			byText[tk] = i
		}
		if s != tx {
			return fmt.Errorf("job %d shares its struct execution key with job %d but its text key with job %d", i, s, tx)
		}
	}
	return nil
}
