package rbcast

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// PackedResult is the compact, render-ready form of a Result, and the form
// rbcastd caches. Decisions are stored densely in wire order — the order in
// which encoding/json emits the map's "x,y" keys — at 16 B per node instead
// of a map entry, and AppendJSON renders bytes identical to json.Marshal of
// the Result without reflection.
//
// A PackedResult is immutable once built. Pack and Result copy the Faulty
// and per-round slices; Trace, which is only ever rendered, is shared.
type PackedResult struct {
	// head is the Result minus its Decisions.
	head Result
	// On a key set that fills its bounding box, xs and ys hold the two
	// coordinate ranges, each sorted by decimal text, and decision i
	// belongs to node (xs[i/len(ys)], ys[i%len(ys)]). Any other key set
	// keeps its keys in wire order in keys instead.
	xs, ys    []int
	keys      []Node
	decisions []packedDecision
}

// packedDecision is one Decision in 16 bytes.
type packedDecision struct {
	round   int
	value   byte
	decided bool
}

// Pack returns the packed form of r.
//
// encoding/json orders Decisions by the keys' "x,y" text, which is the
// lexicographic order of (x text, y text): ',' sorts below every digit and
// '-', so a coordinate whose text is a prefix of another's sorts first
// either way. Torus results and the "id,0" labels of the other topology
// families fill their bounding box, so their decisions are placed by rank
// in one pass over the map; any other key set sorts its keys' text.
func (r Result) Pack() PackedResult {
	p := PackedResult{head: r}
	p.head.Decisions = nil
	p.head.Faulty = slices.Clone(r.Faulty)
	p.head.Metrics.PerRound = slices.Clone(r.Metrics.PerRound)
	if len(r.Decisions) == 0 {
		return p
	}
	p.decisions = make([]packedDecision, len(r.Decisions))
	minX, maxX, minY, maxY, filled := boundingBox(r.Decisions)
	if !filled {
		p.packSorted(r.Decisions)
		return p
	}
	var rankX, rankY []int
	p.xs, rankX = textOrder(minX, maxX-minX+1)
	p.ys, rankY = textOrder(minY, maxY-minY+1)
	for n, d := range r.Decisions {
		p.decisions[rankX[n.X-minX]*len(p.ys)+rankY[n.Y-minY]] = packDecision(d)
	}
	return p
}

// boundingBox returns the coordinate ranges of the keys and whether the
// keys fill the box they span. Differences are taken in uint64 so extreme
// coordinates cannot overflow.
func boundingBox(m map[Node]Decision) (minX, maxX, minY, maxY int, filled bool) {
	first := true
	for n := range m {
		if first {
			minX, maxX, minY, maxY, first = n.X, n.X, n.Y, n.Y, false
			continue
		}
		minX, maxX = min(minX, n.X), max(maxX, n.X)
		minY, maxY = min(minY, n.Y), max(maxY, n.Y)
	}
	size := uint64(len(m))
	w, h := uint64(maxX)-uint64(minX), uint64(maxY)-uint64(minY)
	filled = w < size && h < size && (w+1)*(h+1) == size
	return minX, maxX, minY, maxY, filled
}

// textOrder returns the n coordinates lo, lo+1, … sorted by decimal text,
// and each coordinate's rank in that order indexed by its offset from lo.
func textOrder(lo, n int) (order, rank []int) {
	texts := make([]string, n)
	order = make([]int, n)
	for i := range order {
		order[i] = i
		texts[i] = strconv.Itoa(lo + i)
	}
	sort.Slice(order, func(a, b int) bool { return texts[order[a]] < texts[order[b]] })
	rank = make([]int, n)
	for r, off := range order {
		rank[off] = r
		order[r] = lo + off
	}
	return order, rank
}

// packSorted is Pack's fallback for key sets that do not fill their
// bounding box: it sorts the keys' text, as encoding/json does.
func (p *PackedResult) packSorted(m map[Node]Decision) {
	type keyed struct {
		text string
		node Node
	}
	ks := make([]keyed, 0, len(m))
	for n := range m {
		ks = append(ks, keyed{strconv.Itoa(n.X) + "," + strconv.Itoa(n.Y), n})
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a].text < ks[b].text })
	p.keys = make([]Node, len(ks))
	for i, k := range ks {
		p.keys[i] = k.node
		p.decisions[i] = packDecision(m[k.node])
	}
}

func packDecision(d Decision) packedDecision {
	return packedDecision{round: d.Round, value: d.Value, decided: d.Decided}
}

// node returns the key of decision i.
func (p *PackedResult) node(i int) Node {
	if p.keys != nil {
		return p.keys[i]
	}
	return Node{X: p.xs[i/len(p.ys)], Y: p.ys[i%len(p.ys)]}
}

// Result unpacks p into a fresh Result equal to the one packed.
func (p *PackedResult) Result() Result {
	r := p.head
	r.Faulty = slices.Clone(r.Faulty)
	r.Metrics.PerRound = slices.Clone(r.Metrics.PerRound)
	if len(p.decisions) > 0 {
		r.Decisions = make(map[Node]Decision, len(p.decisions))
		for i, d := range p.decisions {
			r.Decisions[p.node(i)] = Decision{Value: d.value, Decided: d.decided, Round: d.round}
		}
	}
	return r
}

// AppendJSON appends the JSON encoding of the packed Result to dst: the
// bytes json.Marshal renders for it, produced without reflection. Only the
// trace member, present when Config.Trace was set, goes through
// encoding/json, and only it can fail.
//
// Every object is written with a leading comma before each member, and the
// first comma then becomes the opening brace (see closeObject).
func (p *PackedResult) AppendJSON(dst []byte) ([]byte, error) {
	h := &p.head
	mark := len(dst)
	dst = appendIntMember(dst, `,"honest":`, int64(h.Honest))
	dst = appendIntMember(dst, `,"correct":`, int64(h.Correct))
	dst = appendIntMember(dst, `,"wrong":`, int64(h.Wrong))
	dst = appendIntMember(dst, `,"undecided":`, int64(h.Undecided))
	dst = appendIntMember(dst, `,"faults":`, int64(h.Faults))
	dst = appendIntMember(dst, `,"max_faults_per_nbd":`, int64(h.MaxFaultsPerNbd))
	dst = appendIntMember(dst, `,"rounds":`, int64(h.Rounds))
	dst = appendIntMember(dst, `,"broadcasts":`, int64(h.Broadcasts))
	dst = appendIntMember(dst, `,"deliveries":`, int64(h.Deliveries))
	if h.Quiesced {
		dst = append(dst, `,"quiesced":true`...)
	}
	if len(p.decisions) > 0 {
		dst = append(dst, `,"decisions":{`...)
		dst = p.appendDecisions(dst)
		dst = append(dst, '}')
	}
	if len(h.Faulty) > 0 {
		dst = append(dst, `,"faulty":[`...)
		for i, n := range h.Faulty {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendNode(append(dst, '"'), n)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"metrics":`...)
	dst = appendMetrics(dst, &h.Metrics)
	if len(h.Trace) > 0 {
		trace, err := json.Marshal(h.Trace)
		if err != nil {
			return dst[:mark], fmt.Errorf("rbcast: encoding result trace: %w", err)
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, trace...)
	}
	return closeObject(dst, mark), nil
}

// appendDecisions renders the Decisions members in wire order.
func (p *PackedResult) appendDecisions(dst []byte) []byte {
	for i, d := range p.decisions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendNode(append(dst, '"'), p.node(i))
		dst = appendDecision(append(dst, '"', ':'), d)
	}
	return dst
}

// appendNode renders a Node's "x,y" text (Node.MarshalText) unquoted.
func appendNode(dst []byte, n Node) []byte {
	dst = strconv.AppendInt(dst, int64(n.X), 10)
	return strconv.AppendInt(append(dst, ','), int64(n.Y), 10)
}

func appendDecision(dst []byte, d packedDecision) []byte {
	mark := len(dst)
	dst = appendIntMember(dst, `,"value":`, int64(d.value))
	if d.decided {
		dst = append(dst, `,"decided":true`...)
	}
	dst = appendIntMember(dst, `,"round":`, int64(d.round))
	return closeObject(dst, mark)
}

func appendMetrics(dst []byte, m *Metrics) []byte {
	mark := len(dst)
	dst = appendIntMember(dst, `,"evidence_evals":`, int64(m.EvidenceEvals))
	dst = appendIntMember(dst, `,"commits":`, int64(m.Commits))
	if len(m.PerRound) > 0 {
		dst = append(dst, `,"per_round":[`...)
		for i := range m.PerRound {
			if i > 0 {
				dst = append(dst, ',')
			}
			rm := &m.PerRound[i]
			rmark := len(dst)
			dst = appendIntMember(dst, `,"broadcasts":`, int64(rm.Broadcasts))
			dst = appendIntMember(dst, `,"deliveries":`, int64(rm.Deliveries))
			dst = appendIntMember(dst, `,"evidence_evals":`, int64(rm.EvidenceEvals))
			dst = appendIntMember(dst, `,"commits":`, int64(rm.Commits))
			dst = closeObject(dst, rmark)
		}
		dst = append(dst, ']')
	}
	dst = appendIntMember(dst, `,"wall_ns":`, int64(m.Wall))
	return closeObject(dst, mark)
}

// appendIntMember appends an omitempty integer member: nothing for zero.
// member carries the leading comma, the quoted name and the colon.
func appendIntMember(dst []byte, member string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, member...), v, 10)
}

// closeObject finishes an object whose members were appended from mark on,
// each with a leading comma: the first comma becomes the opening brace, and
// an object with no members renders as {}.
func closeObject(dst []byte, mark int) []byte {
	if len(dst) == mark {
		return append(dst, '{', '}')
	}
	dst[mark] = '{'
	return append(dst, '}')
}
