package protocol

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind selects a protocol.
type Kind int

const (
	// Flood is the crash-stop flooding protocol (§VII).
	Flood Kind = iota + 1
	// CPA is the simple protocol of §IX.
	CPA
	// BV4 is the 4-hop indirect-report protocol of §VI.
	BV4
	// BV2 is the 2-hop simplified protocol of §VI-B.
	BV2
	// Bracha is Bracha's ECHO/READY reliable broadcast — the
	// message-passing literature's quorum protocol (N ≥ 3f+1), run under
	// the radio harness for head-to-head comparison with the paper's
	// locally-bounded protocols. Endorsements are counted by attributed
	// physical sender, so quorums need single-hop reach.
	Bracha
	// BrachaAuth is the authenticated variant: simulated signatures pin
	// VAL provenance and name ECHO/READY endorsers, and honest nodes relay
	// each distinct signed message once, so quorums assemble across
	// multi-hop relays on any connected graph.
	BrachaAuth
)

// String names the protocol.
func (k Kind) String() string {
	switch k {
	case Flood:
		return "flood"
	case CPA:
		return "cpa"
	case BV4:
		return "bv4"
	case BV2:
		return "bv2"
	case Bracha:
		return "bracha"
	case BrachaAuth:
		return "bracha-auth"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// EvidenceMode selects how BV4 evaluates indirect evidence.
type EvidenceMode int

const (
	// Designated uses the precomputed path families from the constructive
	// proof — the paper's "earmarking" state reduction. Nodes relay only
	// chain prefixes belonging to a designated family. This is the
	// default: sound, complete (per the proof), and polynomial.
	Designated EvidenceMode = iota + 1
	// Exact relays every chain up to the relay cap and evaluates the
	// commit rule by exact disjoint-path packing over all recorded
	// chains. Exponential message volume in dense networks; intended for
	// r = 1 validation runs.
	Exact
)

// String names the mode.
func (m EvidenceMode) String() string {
	switch m {
	case Designated:
		return "designated"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("EvidenceMode(%d)", int(m))
	}
}

// Params configures a protocol instance.
type Params struct {
	// Net is the radio network (required). Flood, CPA and the Bracha
	// family run on any topology.Graph family; BV4 and BV2 need the torus
	// geometry (grid neighborhood centers, designated path families) and
	// reject every other family at construction.
	Net topology.Graph
	// Source is the designated broadcast source.
	Source topology.NodeID
	// Value is the source's binary input.
	Value byte
	// T is the assumed fault bound (ignored by Flood): per closed
	// neighborhood for the paper's locally-bounded protocols, global (the
	// quorum f of N ≥ 3f+1) for the Bracha family.
	T int
	// Mode selects BV4 evidence handling; defaults to Designated.
	Mode EvidenceMode
	// SpoofingPossible drops the paper's no-address-spoofing assumption
	// (§X sensitivity study): honest receivers attribute messages to the
	// claimed sender instead of the physical transmitter, so a malicious
	// node may impersonate honest ones. The paper predicts reliable
	// broadcast becomes "extremely difficult to achieve"; experiment E22
	// demonstrates the resulting safety collapse.
	SpoofingPossible bool
	// Metrics is the processes' instrumentation tap (optional). They
	// count commit-rule evidence evaluations into it — BV4's and BV2's
	// disjoint-path checks and Bracha's quorum re-checks, the protocols'
	// computational hot spot — and, when it is recording, also record
	// spoofed attributions and commits with their justifying
	// certificates. Certificates are built only for a recording
	// collector. Nil disables the tap. Processes tap it from the
	// concurrent runtime's workers, which the collector allows.
	Metrics *metrics.Collector
}

// attributedSender resolves the identity a receiver ascribes a message to:
// the physical transmitter under the paper's authenticated medium, or the
// claimed identity when spoofing is possible and exercised.
func attributedSender(spoofingPossible bool, from topology.NodeID, m sim.Message) topology.NodeID {
	if spoofingPossible && m.Spoofed {
		return m.Claimed
	}
	return from
}

// namesOutsider reports whether m names a node id outside [0, n): its
// origin, a relay, or — when spoofing is possible and exercised — its
// claimed sender. BV4 and BV2 map these ids to grid coordinates and
// authenticated Bracha indexes bitsets by them, so they drop such a
// message whole: no state change and no broadcast.
func namesOutsider(n int, spoofingPossible bool, m sim.Message) bool {
	outside := func(id topology.NodeID) bool { return uint32(id) >= uint32(n) }
	if outside(m.Origin) || (spoofingPossible && m.Spoofed && outside(m.Claimed)) {
		return true
	}
	for _, id := range m.Path {
		if outside(id) {
			return true
		}
	}
	return false
}

// slab hands out zeroed values of T carved from chunks, so a factory
// allocates once per chunk instead of once per process. It is never
// indexed by id: one factory may serve several engines, so a chunk runs
// out and the next one starts.
type slab[T any] []T

// take returns the next zeroed value, starting a chunk of the given
// length when the current one is used up.
func (s *slab[T]) take(chunk int) *T {
	if len(*s) == 0 {
		*s = make([]T, chunk)
	}
	v := &(*s)[0]
	*s = (*s)[1:]
	return v
}

// cloneSlab copies procs, each a *T, into one new slab and returns the
// copies, in order, both as processes and as the slab, where a caller
// detaches what a struct copy shares.
func cloneSlab[T any, P interface {
	*T
	sim.Process
}](procs []sim.Process) ([]sim.Process, []T) {
	slab := make([]T, len(procs))
	clones := make([]sim.Process, len(procs))
	for i, p := range procs {
		slab[i] = *p.(P)
		clones[i] = P(&slab[i])
	}
	return clones, slab
}

// procChunk caps the chunk length of the BV4, BV2 and Bracha slabs.
// Their processes are larger than flood's and CPA's, whose chunks are a
// whole network, so a chunk is the network only up to this size: past it,
// building a process costs the same bytes on any network.
const procChunk = 64

// storeSizes returns the first capacities of a BV4 or BV2 process's
// evidence store, taken from its neighborhood: the origins of its two-hop
// ball, and d² chains per value for degree d — a chain through each
// neighbor from each of that neighbor's other d−1 neighbors, plus the d
// direct receptions. In a fault-free radius-1 run every process ends with
// exactly these sizes.
func storeSizes(net *topology.Network) (origins, chains int) {
	d := net.Degree()
	return net.Metric().BallSize(2 * net.Radius()), d * d
}

// newNodeSets points each of sets at an empty topology.NodeSet over the
// ids [0, n), all carved from one allocation.
func newNodeSets(n int, sets ...*topology.NodeSet) {
	w := (n + 63) / 64
	words := make([]uint64, w*len(sets))
	for i, s := range sets {
		*s = topology.NodeSet(words[i*w : (i+1)*w : (i+1)*w])
	}
}

// torus returns the network as the grid family, or an error naming the
// protocol when the run was configured on a non-torus graph. The BV4/BV2
// chain machinery is inherently geometric — candidate neighborhood centers
// and designated families are grid constructions — so those protocols are
// torus-only.
func (p Params) torus(kind Kind) (*topology.Network, error) {
	net, ok := p.Net.(*topology.Network)
	if !ok {
		return nil, fmt.Errorf("protocol: %s requires the torus topology, got family %q", kind, p.Net.Family())
	}
	return net, nil
}

// validate checks common parameter constraints.
func (p Params) validate() error {
	if p.Net == nil {
		return fmt.Errorf("protocol: Params.Net is required")
	}
	if p.Source < 0 || int(p.Source) >= p.Net.Size() {
		return fmt.Errorf("protocol: source %d out of range", p.Source)
	}
	if p.Value > 1 {
		return fmt.Errorf("protocol: value must be binary, got %d", p.Value)
	}
	if p.T < 0 {
		return fmt.Errorf("protocol: negative fault bound %d", p.T)
	}
	if p.T > MaxT {
		return fmt.Errorf("protocol: fault bound %d exceeds 2³¹−1 = %d", p.T, MaxT)
	}
	return nil
}

// MaxT is the largest fault bound the protocols accept. At or below it the
// thresholds t+1, 2t+1 and 3t+1 cannot overflow a 64-bit int.
const MaxT = 1<<31 - 1

// NewFactory returns the honest-process factory for the selected protocol.
// Combine it with fault strategies at the runner level to model adversaries.
func NewFactory(kind Kind, p Params) (sim.ProcessFactory, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch kind {
	case Flood:
		return newFloodFactory(p), nil
	case CPA:
		return newCPAFactory(p), nil
	case BV4:
		return newBV4Factory(p)
	case BV2:
		return newBV2Factory(p)
	case Bracha, BrachaAuth:
		return newBrachaFactory(p, kind)
	default:
		return nil, fmt.Errorf("protocol: unknown protocol kind %d", int(kind))
	}
}
