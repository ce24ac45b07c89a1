package server

import (
	"errors"
	"net/http"

	rbcast "repro"
	"repro/internal/obs"
)

// SweepRequest is the /v1/sweep payload: a base scenario plus axes. The
// server plans the grid — expansion order, the element cap, execution-key
// grouping and wavefront forking all happen daemon-side, so every client
// sees the same canonical plan for the same request.
type SweepRequest struct {
	Base RunRequest       `json:"base"`
	Axes rbcast.SweepAxes `json:"axes"`
	// Workers optionally caps the sweep's worker pool below the server
	// default (≤ 0: server default).
	Workers int `json:"workers,omitempty"`
}

// SweepHeader is the first NDJSON line of a /v1/sweep response: the planned
// element count, before any results.
type SweepHeader struct {
	Elements int `json:"elements"`
}

// SweepElement is one per-element NDJSON line, in grid order (the
// SweepSpec.Elements expansion: placements outermost, crash rounds
// innermost). The server renders it from the packed cache entry
// (render.go); the bytes equal json.Marshal of this type.
type SweepElement struct {
	Index       int            `json:"index"`
	Fingerprint string         `json:"fingerprint"`
	Result      *rbcast.Result `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
	// Cached reports the element was served without simulating: from the
	// result cache, or from an earlier element with the same fingerprint.
	Cached bool `json:"cached,omitempty"`
	// Partial marks an element cut by the server's job deadline: Error
	// carries the deadline error, Result the partial state (never cached).
	Partial bool `json:"partial,omitempty"`
}

// SweepTrailer is the final NDJSON line: the sweep engine's sharing
// statistics for the executed (non-cached) elements.
type SweepTrailer struct {
	Stats rbcast.SweepStats `json:"stats"`
}

// handleSweep plans a parameter grid server-side, executes it through
// resolveJobs — cache hits and repeated fingerprints resolve without
// simulating, the misses run on rbcast.RunSweepJobs (execution-key sharing
// plus wavefront-prefix forks) — and writes per-element results as NDJSON:
// header, one line per element in grid order, stats trailer. Failure
// modes follow /v1/run: invalid grid 400, draining 503, all execution slots
// taken 429 (Retry-After), deadline elements marked partial inline.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tr, root := obs.SpanFromContext(r.Context())
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	elements, err := rbcast.SweepSpec{Base: req.Base, Axes: req.Axes}.Elements()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Sweeps are synchronous like /v1/run: shed rather than queue when
	// every execution slot is taken. One slot covers the whole sweep; the
	// engine's own worker pool paces the per-element parallelism.
	if s.runSlots != nil {
		slotSp := tr.Start(root, "slot_wait")
		select {
		case s.runSlots <- struct{}{}:
			tr.End(slotSp)
			defer func() { <-s.runSlots }()
		default:
			tr.End(slotSp)
			s.shedBusy.Add(1)
			writeShed(w, errBusy)
			return
		}
	}

	results, stats := s.resolveJobs(tr, root, elements, req.Workers, nil)
	s.sweepsRun.Add(1)
	s.sweepElements.Add(int64(len(elements)))
	s.sweepSharedResults.Add(int64(stats.SharedResults))
	s.sweepNodeRounds.Add(stats.NodeRounds)
	s.sweepScalarNodeRounds.Add(stats.ScalarNodeRounds)

	// Every element is resolved before the first byte goes out, so a
	// flush per line would give the client nothing sooner: the body goes
	// out in batches (writeLines). A run of elements sharing one execution
	// renders its result once. Writing stops at the first failed write: a
	// client that left costs no further rendering. A line that fails to
	// render is skipped.
	encSp := tr.Start(root, "encode")
	defer tr.End(encSp)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	buf, memoBuf := bufPool.Get().(*[]byte), bufPool.Get().(*[]byte)
	memo := resultMemo{json: *memoBuf}
	defer func() {
		bufPool.Put(buf)
		*memoBuf = memo.json
		bufPool.Put(memoBuf)
	}()
	*buf = writeLines(w, *buf, len(results)+2, func(dst []byte, i int) ([]byte, error) {
		switch {
		case i == 0:
			return appendMarshal(dst, SweepHeader{Elements: len(elements)})
		case i <= len(results):
			return appendSweepElement(dst, i-1, &results[i-1], &memo)
		default:
			return appendMarshal(dst, SweepTrailer{Stats: stats})
		}
	})
}
