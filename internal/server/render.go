package server

// Response rendering for every body that carries a Result: /v1/run, the
// /v1/sweep element lines and /v1/jobs/{id}. The cache holds
// rbcast.PackedResult values, and these writers append their JSON into
// pooled buffers without reflection. The output is byte-identical to
// json.Marshal of the exported wire types (RunResponse, SweepElement,
// JobStatus), which remain the schema clients decode into.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	rbcast "repro"
)

// element is one batch or sweep element as the server keeps it: the wire
// fields of JobResult and SweepElement with the result packed.
type element struct {
	fp      string
	res     *rbcast.PackedResult
	err     string
	cached  bool
	partial bool
}

// bufPool recycles response buffers: a 40x30 torus Result renders to about
// 50 KB, and a fresh buffer per response would make the garbage collector
// pay for every hit.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendJSONString appends s as encoding/json renders it. Plain printable
// ASCII without HTML-sensitive characters (fingerprints, ids, states) is
// copied as is; anything else goes through encoding/json's escaping.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendMarshal appends json.Marshal(v) and a newline, as json.Encoder
// writes a line; for the small fixed-shape lines around a sweep stream.
func appendMarshal(dst []byte, v any) ([]byte, error) {
	line, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, line...), '\n'), nil
}

// appendRunResponse renders a RunResponse line.
func appendRunResponse(dst []byte, fp string, res *rbcast.PackedResult) ([]byte, error) {
	dst = append(dst, `{"fingerprint":`...)
	dst = appendJSONString(dst, fp)
	dst, err := res.AppendJSON(append(dst, `,"result":`...))
	if err != nil {
		return dst, err
	}
	return append(dst, '}', '\n'), nil
}

// appendElement renders an element's members after the opening brace of
// its JobResult or SweepElement object, and closes the object.
func appendElement(dst []byte, e *element) ([]byte, error) {
	dst = append(dst, `"fingerprint":`...)
	dst = appendJSONString(dst, e.fp)
	if e.res != nil {
		var err error
		if dst, err = e.res.AppendJSON(append(dst, `,"result":`...)); err != nil {
			return dst, err
		}
	}
	if e.err != "" {
		dst = appendJSONString(append(dst, `,"error":`...), e.err)
	}
	if e.cached {
		dst = append(dst, `,"cached":true`...)
	}
	if e.partial {
		dst = append(dst, `,"partial":true`...)
	}
	return append(dst, '}'), nil
}

// appendSweepElement renders one SweepElement NDJSON line.
func appendSweepElement(dst []byte, index int, e *element) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(index), 10)
	dst, err := appendElement(append(dst, ','), e)
	if err != nil {
		return dst, err
	}
	return append(dst, '\n'), nil
}

// appendJobStatus renders a JobStatus body; results is nil while the job
// runs.
func appendJobStatus(dst []byte, job *batchJob, state string, results []element) ([]byte, error) {
	dst = appendJSONString(append(dst, `{"id":`...), job.id)
	dst = appendJSONString(append(dst, `,"state":`...), state)
	dst = strconv.AppendInt(append(dst, `,"jobs":`...), int64(job.n), 10)
	if len(results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendElement(append(dst, '{'), &results[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// writeRendered renders a 200 application/json body into a pooled buffer
// and writes it; a render failure answers 500 as writeJSON does.
func writeRendered(w http.ResponseWriter, render func([]byte) ([]byte, error)) {
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	body, err := render((*buf)[:0])
	*buf = body
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
