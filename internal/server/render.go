package server

// Response rendering for every body that carries a Result: /v1/run, the
// /v1/sweep element lines and /v1/jobs/{id}. The cache holds
// rbcast.PackedResult values, and these writers append their JSON into
// pooled buffers without reflection. The output is byte-identical to
// json.Marshal of the exported wire types (RunResponse, SweepElement,
// JobStatus), which remain the schema clients decode into.

import (
	"encoding/json"
	"io"
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

// resultMemo renders a packed result once for a run of consecutive
// elements that share it (resolveJobs gives the elements of one execution
// one *rbcast.PackedResult) and copies the bytes for the rest of the run.
// A nil memo renders every time.
type resultMemo struct {
	res  *rbcast.PackedResult
	json []byte
}

// appendJSON appends res.AppendJSON's bytes.
func (m *resultMemo) appendJSON(dst []byte, res *rbcast.PackedResult) ([]byte, error) {
	if m == nil {
		return res.AppendJSON(dst)
	}
	if res != m.res {
		rendered, err := res.AppendJSON(m.json[:0])
		if err != nil {
			m.res = nil
			return dst, err
		}
		m.res, m.json = res, rendered
	}
	return append(dst, m.json...), nil
}

// appendElement renders an element's members after the opening brace of
// its JobResult or SweepElement object, and closes the object.
func appendElement(dst []byte, e *element, memo *resultMemo) ([]byte, error) {
	dst = append(dst, `"fingerprint":`...)
	dst = appendJSONString(dst, e.fp)
	if e.res != nil {
		var err error
		if dst, err = memo.appendJSON(append(dst, `,"result":`...), e.res); err != nil {
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
func appendSweepElement(dst []byte, index int, e *element, memo *resultMemo) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(index), 10)
	dst, err := appendElement(append(dst, ','), e, memo)
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
			if dst, err = appendElement(append(dst, '{'), &results[i], nil); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// writeRendered renders a 200 application/json body into a pooled buffer
// and writes it with its Content-Length, so it goes out in one write; a
// render failure answers 500 as writeJSON does.
func writeRendered(w http.ResponseWriter, render func([]byte) ([]byte, error)) {
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	body, err := render((*buf)[:0])
	*buf = body
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// ndjsonBatch is the size from which writeLines hands its buffered lines
// to the connection: large enough that a MB-sized /v1/sweep body costs a
// few dozen writes instead of one write and one flush per line.
const ndjsonBatch = 64 << 10

// writeLines renders lines 0..n-1 into buf and writes them to w in
// batches: a batch goes out once it holds ndjsonBatch bytes, and at the
// last line. A batch always ends at the end of a line. It stops at the
// first failed write, so a client that left costs no further rendering,
// and it skips a line that fails to render. It returns buf, grown, for
// the caller's pool.
func writeLines(w io.Writer, buf []byte, n int, render func(dst []byte, i int) ([]byte, error)) []byte {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		mark := len(buf)
		line, err := render(buf, i)
		if err != nil {
			line = line[:mark]
		}
		buf = line
		if len(buf) >= ndjsonBatch || (i == n-1 && len(buf) > 0) {
			if _, err := w.Write(buf); err != nil {
				return buf
			}
			buf = buf[:0]
		}
	}
	return buf
}
