package fault

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Strategy names a Byzantine node behaviour. Strategies are sim.Process
// factories: the engine runs them in place of the honest protocol. Except
// for the explicit what-ifs — Spoofer (§X identity spoofing) and
// Equivocator (directional transmission) — strategies respect the medium's
// physical guarantees: no identity spoofing, no collisions, no showing
// different values to different neighbors; everything else (lying, forging
// reports, staying silent) is fair game.
type Strategy int

const (
	// Silent nodes never transmit: the strongest stalling adversary for
	// threshold experiments (a silent fault also subsumes a crash).
	Silent Strategy = iota + 1
	// Liar nodes announce a flipped COMMITTED value as soon as they hear
	// any value, then go quiet.
	Liar
	// Forger nodes announce a flipped COMMITTED value and additionally
	// forge indirect HEARD reports: every honest COMMITTED or HEARD they
	// hear is re-reported with the value flipped, attacking the
	// indirect-evidence mechanism of §VI directly.
	Forger
	// Spoofer nodes impersonate honest neighbors, announcing flipped
	// COMMITTED values under stolen identities. The paper's model forbids
	// this ("a node may not spoof another node's identity"); the strategy
	// only bites when the protocol runs with SpoofingPossible — the §X
	// sensitivity study.
	Spoofer
	// Equivocator nodes are two-faced: they endorse one value toward
	// even-id receivers and the flipped value toward odd-id receivers, in
	// every quorum dialect (VALUE, ECHO, READY) at once. This violates the
	// radio medium's local-broadcast guarantee (every neighbor hears the
	// same transmission) via directional transmission — a physical-layer
	// what-if in the spirit of §X. Quorum protocols are sensitive to it
	// (split ECHO/READY tallies stall Bracha at f ≥ N/3) while the paper's
	// locally-bounded protocols shrug it off: the split endorsements are
	// just one more Byzantine vote per partition.
	Equivocator
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Silent:
		return "silent"
	case Liar:
		return "liar"
	case Forger:
		return "forger"
	case Spoofer:
		return "spoofer"
	case Equivocator:
		return "equivocator"
	default:
		return "unknown"
	}
}

// NewProcess builds the sim.Process implementing the strategy for node id.
func (s Strategy) NewProcess(id topology.NodeID) sim.Process {
	switch s {
	case Silent:
		return sim.NopProcess{}
	case Liar:
		return &liarProc{}
	case Forger:
		return &forgerProc{seen: make(map[forgeryKey]struct{})}
	case Spoofer:
		return &spooferProc{victims: make(map[topology.NodeID]struct{})}
	case Equivocator:
		return &equivocatorProc{}
	default:
		return sim.NopProcess{}
	}
}

// flip inverts a binary broadcast value.
func flip(v byte) byte {
	if v == 0 {
		return 1
	}
	return 0
}

// liarProc announces the flipped value once.
type liarProc struct {
	sent bool
}

// Init implements sim.Process.
func (p *liarProc) Init(sim.Context) {}

// Deliver implements sim.Process.
func (p *liarProc) Deliver(ctx sim.Context, _ topology.NodeID, m sim.Message) {
	if p.sent {
		return
	}
	if m.Kind != sim.KindValue && m.Kind != sim.KindCommitted {
		return
	}
	p.sent = true
	ctx.Broadcast(sim.Message{
		Kind: sim.KindCommitted, Origin: ctx.Self(), Value: flip(m.Value),
		Instance: m.Instance,
	})
}

// Decided implements sim.Process; adversaries never decide.
func (p *liarProc) Decided() (byte, bool) { return 0, false }

// forgerProc lies about its own commitment and about everything it relays.
type forgerProc struct {
	sentCommit bool
	seen       map[forgeryKey]struct{}
}

// forgeryKey identifies one forged message: instance, kind, origin, value
// and relay path. Forgeries are HEARD reports of at most
// sim.MaxHeardRelays relays, so the path fits inline and the key is
// comparable without building a string; unused slots hold topology.None.
type forgeryKey struct {
	instance int32
	kind     sim.Kind
	value    byte
	origin   topology.NodeID
	path     [sim.MaxHeardRelays]topology.NodeID
}

// newForgeryKey builds m's key. Forgeries never carry more than
// sim.MaxHeardRelays relays; a longer path would keep only its prefix.
func newForgeryKey(m sim.Message) forgeryKey {
	k := forgeryKey{instance: m.Instance, kind: m.Kind, value: m.Value, origin: m.Origin}
	for i := range k.path {
		k.path[i] = topology.None
	}
	copy(k.path[:], m.Path)
	return k
}

// Init implements sim.Process.
func (p *forgerProc) Init(sim.Context) {}

// Deliver implements sim.Process.
func (p *forgerProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	switch m.Kind {
	case sim.KindValue, sim.KindCommitted:
		if !p.sentCommit {
			p.sentCommit = true
			ctx.Broadcast(sim.Message{
				Kind: sim.KindCommitted, Origin: ctx.Self(), Value: flip(m.Value),
				Instance: m.Instance,
			})
		}
		if m.Kind == sim.KindCommitted {
			// Forge a first-hop report with the value flipped. The relayer
			// identity (ourselves) is genuine — the medium authenticates it —
			// but the reported value is a lie.
			forged := sim.Message{
				Kind:     sim.KindHeard,
				Origin:   from,
				Value:    flip(m.Value),
				Path:     []topology.NodeID{ctx.Self()},
				Instance: m.Instance,
			}
			p.broadcastOnce(ctx, forged)
		}
	case sim.KindHeard:
		if len(m.Path) >= sim.MaxHeardRelays {
			return
		}
		// Relay the chain with the value flipped, appending our (genuine)
		// identifier as the protocol requires.
		forged := m.ExtendPath(ctx.Self())
		forged.Value = flip(m.Value)
		p.broadcastOnce(ctx, forged)
	}
}

// broadcastOnce suppresses duplicate forgeries (the medium preserves
// per-sender ordering, so honest receivers would ignore duplicates anyway).
func (p *forgerProc) broadcastOnce(ctx sim.Context, m sim.Message) {
	k := newForgeryKey(m)
	if _, ok := p.seen[k]; ok {
		return
	}
	p.seen[k] = struct{}{}
	ctx.Broadcast(m)
}

// Decided implements sim.Process.
func (p *forgerProc) Decided() (byte, bool) { return 0, false }

var (
	_ sim.Process = (*liarProc)(nil)
	_ sim.Process = (*forgerProc)(nil)
)

// spooferProc impersonates every sender it hears: for each first message
// from a node h carrying a value, it broadcasts COMMITTED(h, flip) with a
// spoofed sender identity. Under the paper's authenticated medium these
// messages are discarded (Origin equals the claimed sender but receivers
// attribute them to the true transmitter); with SpoofingPossible they are
// indistinguishable from h's own announcements.
type spooferProc struct {
	victims map[topology.NodeID]struct{}
}

// Init implements sim.Process.
func (p *spooferProc) Init(sim.Context) {}

// Deliver implements sim.Process.
func (p *spooferProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Kind != sim.KindValue && m.Kind != sim.KindCommitted {
		return
	}
	if _, done := p.victims[from]; done {
		return
	}
	p.victims[from] = struct{}{}
	// Impersonate in both announcement dialects: VALUE (the simple
	// protocol's vote format, and the source's own transmission) and
	// COMMITTED (the indirect-report protocols' format).
	ctx.Broadcast(sim.Message{
		Kind:     sim.KindValue,
		Value:    flip(m.Value),
		Spoofed:  true,
		Claimed:  from,
		Instance: m.Instance,
	})
	ctx.Broadcast(sim.Message{
		Kind:     sim.KindCommitted,
		Origin:   from,
		Value:    flip(m.Value),
		Spoofed:  true,
		Claimed:  from,
		Instance: m.Instance,
	})
}

// Decided implements sim.Process.
func (p *spooferProc) Decided() (byte, bool) { return 0, false }

var _ sim.Process = (*spooferProc)(nil)

// equivocatorProc attacks quorum assembly: on the first value-bearing
// message it hears, it emits one two-faced volley — the heard value in every
// quorum dialect (VALUE, ECHO, READY) toward even-id receivers, the flipped
// value toward odd-id ones — then goes quiet. Origin is its own (genuine)
// identity, so the volley cannot masquerade as the source's signed VAL under
// the authenticated Bracha variant; the attack is pure equivocation, not
// forgery. The split audiences violate the radio medium's local-broadcast
// guarantee (see sim.Audience) — the point of the what-if.
type equivocatorProc struct {
	sent bool
}

// Init implements sim.Process.
func (p *equivocatorProc) Init(sim.Context) {}

// Deliver implements sim.Process.
func (p *equivocatorProc) Deliver(ctx sim.Context, _ topology.NodeID, m sim.Message) {
	if p.sent || m.Value > 1 {
		return
	}
	switch m.Kind {
	case sim.KindValue, sim.KindCommitted, sim.KindEcho, sim.KindReady:
	default:
		return
	}
	p.sent = true
	for _, face := range []struct {
		audience sim.Audience
		value    byte
	}{
		{sim.AudienceEven, m.Value},
		{sim.AudienceOdd, flip(m.Value)},
	} {
		for _, kind := range []sim.Kind{sim.KindValue, sim.KindEcho, sim.KindReady} {
			ctx.Broadcast(sim.Message{
				Kind:     kind,
				Value:    face.value,
				Origin:   ctx.Self(),
				Audience: face.audience,
				Instance: m.Instance,
			})
		}
	}
}

// Decided implements sim.Process.
func (p *equivocatorProc) Decided() (byte, bool) { return 0, false }

var _ sim.Process = (*equivocatorProc)(nil)
