package server

// Cluster mode: consistent-hash routing of the fingerprint space across a
// fleet of rbcastd replicas. Every member runs with the same -peers list
// and rebuilds the same ring (internal/cluster), so each distinct
// scenario has exactly one owner that simulates and caches it. A
// non-owner that receives /v1/run forwards it to the owner — a reverse
// proxy by default, a 307 redirect with Options.Redirect — and falls back
// to executing locally only when the owner is unreachable, so the fleet
// keeps answering through single-node failures. On a local cache miss the
// owner probes its siblings' caches (GET /v1/cache/{fingerprint}, served
// from scache.Peek so probes never perturb LRU order or hit ratios)
// before simulating: a restarted node warms from the fleet instead of
// recomputing its shard. Peer liveness, proxy outcomes and fill outcomes
// are exposed on /metrics; proxies and probes appear as "proxy" and
// "peer_probe" spans in the flight recorder.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	rbcast "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

const (
	// forwardedHeader marks a request a non-owner already forwarded once.
	// The receiving daemon executes it locally no matter what its own ring
	// says — rings can disagree transiently during a rolling membership
	// change, and one hop must never become a proxy loop.
	forwardedHeader = "X-Rbcast-Forwarded"
	// servedByHeader reports which fleet member actually answered a
	// proxied or cluster-routed run.
	servedByHeader = "X-Rbcast-Served-By"
)

// defaultPeerTimeout bounds sibling cache probes and health checks. Cache
// probes are memory reads on the peer — a sibling that cannot answer one
// in 2s is effectively down and the owner should simulate instead of
// waiting.
const defaultPeerTimeout = 2 * time.Second

// peerStatus is one sibling's observed state: liveness from the last
// contact (health check, proxy, or probe) and the proxy outcome counters.
type peerStatus struct {
	up       atomic.Bool
	proxyOK  atomic.Int64
	proxyErr atomic.Int64
}

// initCluster wires the ring and per-peer state into a new Server. The
// caller has already validated the membership via ValidateCluster (rbcastd
// does it at startup); an invalid configuration here is a programming
// error and panics rather than silently serving single-node.
func (s *Server) initCluster() {
	if len(s.opts.Peers) == 0 {
		return
	}
	if err := ValidateCluster(s.opts.Self, s.opts.Peers); err != nil {
		panic(fmt.Sprintf("server: invalid cluster configuration: %v", err))
	}
	ring, err := cluster.New(s.opts.Peers)
	if err != nil {
		panic(fmt.Sprintf("server: invalid cluster configuration: %v", err))
	}
	s.ring = ring
	s.self = s.opts.Self
	s.peerHC = &http.Client{}
	s.peers = make(map[string]*peerStatus)
	for _, m := range ring.Members() {
		if m == s.self {
			continue
		}
		s.siblings = append(s.siblings, m)
		ps := &peerStatus{}
		ps.up.Store(true) // assume up until a contact says otherwise
		s.peers[m] = ps
	}
}

// ValidateCluster checks a cluster membership configuration: peers must
// form a valid ring and self must be one of them. A daemon whose own URL
// is missing from the fleet list would proxy every request it owns.
func ValidateCluster(self string, peers []string) error {
	ring, err := cluster.New(peers)
	if err != nil {
		return err
	}
	if self == "" {
		return fmt.Errorf("cluster mode needs the daemon's own advertised URL (Self / -self)")
	}
	if !ring.Contains(self) {
		return fmt.Errorf("self %q is not in the peer list %v", self, ring.Members())
	}
	return nil
}

// Clustered reports whether the server runs in cluster mode.
func (s *Server) Clustered() bool { return s.ring != nil }

// peerTimeout returns the sibling probe/health budget.
func (s *Server) peerTimeout() time.Duration {
	if s.opts.PeerTimeout > 0 {
		return s.opts.PeerTimeout
	}
	return defaultPeerTimeout
}

// peerSeen folds one contact outcome into a sibling's liveness.
func (s *Server) peerSeen(peer string, up bool) {
	if ps := s.peers[peer]; ps != nil {
		ps.up.Store(up)
	}
}

// routeRun resolves cluster routing for one /v1/run request and reports
// whether it wrote the response. False means the caller should execute
// locally: single-node mode, this node owns the fingerprint, the result
// is already resident here, the request was already forwarded once, or
// the owner is unreachable (proxy fallback).
func (s *Server) routeRun(tr *obs.Trace, parent obs.SpanID, w http.ResponseWriter, r *http.Request, fp string, body []byte) bool {
	if s.ring == nil {
		return false
	}
	w.Header().Set(servedByHeader, s.self)
	owner := s.ring.Owner(fp)
	if owner == s.self || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	if _, resident := s.cache.Peek(fp); resident {
		// A non-owner can hold a result it computed as a fallback while
		// the owner was down; deterministic results never go stale, so
		// serve it instead of burning a hop.
		return false
	}
	if s.opts.Redirect {
		w.Header().Set("Location", owner+"/v1/run")
		w.WriteHeader(http.StatusTemporaryRedirect)
		return true
	}
	return s.proxyRun(tr, parent, w, r, owner, fp, body)
}

// proxyRun forwards a run to its owner and relays the answer verbatim
// (status, body, cache header). It returns false — response unwritten —
// when the owner is unreachable, and the caller executes locally: the
// fleet degrades to extra work, never to an outage.
func (s *Server) proxyRun(tr *obs.Trace, parent obs.SpanID, w http.ResponseWriter, r *http.Request, owner, fp string, body []byte) bool {
	sp := tr.Start(parent, "proxy")
	tr.Annotate(sp, "peer", owner)
	tr.Annotate(sp, "fingerprint", fp)
	defer tr.End(sp)
	ps := s.peers[owner]
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/run", bytes.NewReader(body))
	if err != nil {
		tr.Annotate(sp, "outcome", "error")
		ps.proxyErr.Add(1)
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, s.self)
	resp, err := s.peerHC.Do(preq)
	if err != nil {
		tr.Annotate(sp, "outcome", "error")
		ps.proxyErr.Add(1)
		s.peerSeen(owner, false)
		if s.opts.Logger != nil {
			s.opts.Logger.Warn("proxy to owner failed, executing locally",
				"peer", owner, "fingerprint", fp, "err", err)
		}
		return false
	}
	defer resp.Body.Close()
	tr.Annotate(sp, "outcome", "ok")
	ps.proxyOK.Add(1)
	s.peerSeen(owner, true)
	for _, h := range []string{"Content-Type", "X-Rbcast-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(servedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// peerFill probes sibling caches for a fingerprint this node owns but
// does not hold — the warm-from-the-fleet path that lets a restarted
// owner answer its shard without re-simulating it. Siblings are tried in
// ring-successor order (the member that inherited the shard while this
// node was down comes first). Probes run detached from the request
// context like executeOne: a disconnecting client must not cancel a fill
// that coalesced single-flight waiters.
func (s *Server) peerFill(tr *obs.Trace, parent obs.SpanID, fp string) (*rbcast.PackedResult, bool) {
	for _, peer := range s.ring.Successors(fp, s.ring.Len()) {
		if peer == s.self {
			continue
		}
		sp := tr.Start(parent, "peer_probe")
		tr.Annotate(sp, "peer", peer)
		res, found, err := s.probePeer(peer, fp)
		switch {
		case err != nil:
			tr.Annotate(sp, "outcome", "error")
			s.peerFillErr.Add(1)
			s.peerSeen(peer, false)
		case found:
			tr.Annotate(sp, "outcome", "hit")
			tr.End(sp)
			s.peerFillHit.Add(1)
			s.peerSeen(peer, true)
			return res, true
		default:
			tr.Annotate(sp, "outcome", "miss")
			s.peerFillMiss.Add(1)
			s.peerSeen(peer, true)
		}
		tr.End(sp)
	}
	return nil, false
}

// probePeer asks one sibling's cache for a fingerprint: (packed result,
// true) on a resident answer, (nil, false) on a clean miss, an error for
// an unreachable or misbehaving peer.
func (s *Server) probePeer(peer, fp string) (*rbcast.PackedResult, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.peerTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+fp, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := s.peerHC.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var rr RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return nil, false, fmt.Errorf("decoding cache probe from %s: %w", peer, err)
		}
		packed := rr.Result.Pack()
		return &packed, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("peer %s answered %d to a cache probe", peer, resp.StatusCode)
	}
}

// handleCacheProbe serves GET /v1/cache/{fp}: the resident result for a
// fingerprint, or 404. It reads through scache.Peek, so fleet-internal
// probes never reorder the LRU or skew the hit/miss counters, and it
// never executes anything — the route exists so siblings can warm from
// this node, not so clients can sidestep admission control.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if res, ok := s.cache.Peek(fp); ok {
		writeRendered(w, func(dst []byte) ([]byte, error) { return appendRunResponse(dst, fp, res) })
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("fingerprint %q is not resident", fp))
}

// CheckPeers actively probes every sibling's /healthz once, refreshing
// the rbcastd_peer_up gauges. Passive marking (proxies and fills) already
// tracks the peers this node talks to; the active sweep covers siblings
// that current traffic never touches.
func (s *Server) CheckPeers(ctx context.Context) {
	for _, peer := range s.siblings {
		pctx, cancel := context.WithTimeout(ctx, s.peerTimeout())
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil)
		if err != nil {
			cancel()
			s.peerSeen(peer, false)
			continue
		}
		resp, err := s.peerHC.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		s.peerSeen(peer, err == nil && resp.StatusCode == http.StatusOK)
	}
}

// PeerHealthLoop runs CheckPeers every interval until ctx is done.
// cmd/rbcastd starts it as a goroutine in cluster mode; interval ≤ 0
// defaults to 5s.
func (s *Server) PeerHealthLoop(ctx context.Context, interval time.Duration) {
	if s.ring == nil {
		return
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	s.CheckPeers(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.CheckPeers(ctx)
		}
	}
}
