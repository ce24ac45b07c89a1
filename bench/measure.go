package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

const (
	// warmup runs the closed loop untimed between the prefill and the
	// timed window, so connections, caches and the GC pacer settle.
	warmup = 2 * time.Second
	// Setup is repeated and its median reported: at least minSetups times
	// and minSetupTime in total, at most maxSetups times. The short
	// prefills (a dozen requests) need many repeats to be steady.
	minSetups    = 3
	minSetupTime = time.Second
	maxSetups    = 40
	// maxKept bounds the request bodies and job-status bodies a traced
	// window keeps per client for the out-of-band layer timings.
	maxKept = 256
)

// harness is one workload's server, transport and clients.
type harness struct {
	fx      *fixture
	wl      workload
	clients []*client

	srv  *server.Server
	ts   *httptest.Server
	tr   *http.Transport
	hc   *http.Client
	base string
	// tracing makes clients keep request and status bodies inside the
	// window for the out-of-band layer timings.
	tracing bool
}

// client is one closed-loop caller: its own request stream, response
// buffer and counters.
type client struct {
	rng *rand.Rand
	buf bytes.Buffer
	// verified holds, per run-hit entry, the last body this client hashed.
	verified [][]byte
	sweeps   sweepTally

	attempted, failed int
	firstErr          error
	samples           []sample

	keeping  bool
	bodies   [][]byte
	statuses [][]byte
}

// sample is one operation that overlapped the window.
type sample struct {
	start time.Time
	lat   time.Duration
	ok    bool
	bytes int
}

func (s sample) end() time.Time { return s.start.Add(s.lat) }

// keep retains a request body for the out-of-band decode timing.
func (c *client) keep(body []byte) {
	if c.keeping && len(c.bodies) < maxKept {
		c.bodies = append(c.bodies, body)
	}
}

// keepStatus retains a batch status body for the out-of-band encode timing.
func (c *client) keepStatus(body []byte) {
	if c.keeping && len(c.statuses) < maxKept/16 {
		c.statuses = append(c.statuses, bytes.Clone(body))
	}
}

// count books one operation's outcome.
func (c *client) count(r opResult) {
	c.attempted++
	if r.err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = r.err
		}
	}
}

func newHarness(fx *fixture, wl workload, wlIndex int) *harness {
	h := &harness{fx: fx, wl: wl}
	for i := 0; i < wl.clients; i++ {
		h.clients = append(h.clients, &client{rng: clientRNG(fx.seed, wlIndex, i)})
	}
	return h
}

// newServer builds the server with rbcastd's default options, no request
// logger, the flight recorder armed with the given capacity (0 off), and
// the given retained-job bound (0: the default 4096).
func newServer(flightRecorder, maxJobs int) *server.Server {
	return server.New(server.Options{
		CacheSize:      1024,
		MaxJobs:        maxJobs,
		QueueDepth:     1024,
		FlightRecorder: flightRecorder,
	})
}

// setup starts a fresh server and runs the cold prefill; the returned
// duration is one setup_s observation.
func (h *harness) setup(flightRecorder int) (time.Duration, error) {
	h.close()
	t := time.Now()
	h.srv = newServer(flightRecorder, h.wl.maxJobs)
	h.ts = httptest.NewServer(h.srv)
	h.tr = &http.Transport{
		MaxIdleConnsPerHost: h.wl.clients,
		MaxConnsPerHost:     h.wl.clients,
		DisableCompression:  true,
	}
	h.hc = &http.Client{Transport: h.tr}
	h.base = h.ts.URL
	err := h.wl.prefill(h)
	return time.Since(t), err
}

// setups repeats setup by the minSetups/minSetupTime/maxSetups rule and
// returns every observation in seconds; the last server stays up.
func (h *harness) setups(flightRecorder int) ([]float64, error) {
	var obs []float64
	var total time.Duration
	for {
		d, err := h.setup(flightRecorder)
		if err != nil {
			return obs, fmt.Errorf("%s prefill: %w", h.wl.name, err)
		}
		obs = append(obs, d.Seconds())
		total += d
		if len(obs) >= maxSetups || (len(obs) >= minSetups && total >= minSetupTime) {
			return obs, nil
		}
	}
}

// close stops the current server, if any, once its batch jobs drained.
func (h *harness) close() {
	if h.srv == nil {
		return
	}
	h.tr.CloseIdleConnections()
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every batch operation waited for its job to finish, so Drain only
	// waits for job goroutines that are already returning.
	_ = h.srv.Drain(ctx)
	h.srv = nil
}

// split runs n prefill operations, operation i on client i mod clients,
// each client sequentially.
func (h *harness) split(n int, op func(c *client, i int) opResult) error {
	var wg sync.WaitGroup
	errs := make([]error, len(h.clients))
	for k, c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += len(h.clients) {
				r := op(c, i)
				c.count(r)
				if r.err != nil && errs[k] == nil {
					errs[k] = r.err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// window is what one timed window measured besides the client samples.
type window struct {
	t0, stop time.Time
	length   time.Duration
	allocs   float64
	heapLive float64
	gcCPU    float64
	cpu      float64
	// metrics are /metrics scrapes at the window's edges (traced runs).
	metrics [2]map[string]float64
}

// measure runs the closed loop for warm, then times a window of length,
// keeping a sample of every operation that overlaps it.
func (h *harness) measure(warm, length time.Duration, scrape bool) window {
	for _, c := range h.clients {
		c.samples = c.samples[:0]
	}
	t0 := time.Now().Add(warm)
	stop := t0.Add(length)
	done := make(chan struct{})
	go func() {
		h.drive(t0, stop)
		close(done)
	}()
	w := window{t0: t0, stop: stop, length: length}
	time.Sleep(time.Until(t0))
	before := readRuntime()
	if scrape {
		w.metrics[0] = h.scrape()
	}
	time.Sleep(time.Until(stop))
	after := readRuntime()
	if scrape {
		w.metrics[1] = h.scrape()
	}
	<-done
	// What the process retains once the window's requests are done:
	// caches, job tables and the clients' own state.
	runtime.GC()
	w.heapLive = readRuntime()[rtHeap]
	w.allocs = after[rtAllocs] - before[rtAllocs]
	w.gcCPU = after[rtGCCPU] - before[rtGCCPU]
	w.cpu = after[rtCPU] - before[rtCPU]
	return w
}

// drive runs every client's closed loop until stop.
func (h *harness) drive(t0, stop time.Time) {
	var wg sync.WaitGroup
	for _, c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(stop) {
					return
				}
				c.keeping = h.tracing && !now.Before(t0)
				r := h.wl.op(h, c)
				c.count(r)
				s := sample{start: r.start, lat: r.lat, ok: r.err == nil, bytes: r.bytes}
				if !s.end().Before(t0) && s.start.Before(stop) {
					c.samples = append(c.samples, s)
				}
			}
		}()
	}
	wg.Wait()
}

// samples merges the clients' window samples.
func (h *harness) samples() []sample {
	var all []sample
	for _, c := range h.clients {
		all = append(all, c.samples...)
	}
	return all
}

// counts sums the clients' attempted and failed operations and returns
// the first failure seen.
func (h *harness) counts() (attempted, failed int, first error) {
	for _, c := range h.clients {
		attempted += c.attempted
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return attempted, failed, first
}

// Indices into readRuntime's result.
const (
	rtAllocs = iota
	rtHeap
	rtGCCPU
	rtCPU
)

var rtNames = [...]string{
	rtAllocs: "/gc/heap/allocs:objects",
	rtHeap:   "/gc/heap/live:bytes",
	rtGCCPU:  "/cpu/classes/gc/total:cpu-seconds",
	rtCPU:    "/cpu/classes/total:cpu-seconds",
}

// readRuntime reads the process-wide runtime counters the metrics use.
func readRuntime() [len(rtNames)]float64 {
	var s [len(rtNames)]rtmetrics.Sample
	for i, name := range rtNames {
		s[i].Name = name
	}
	rtmetrics.Read(s[:])
	var out [len(rtNames)]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// subWindow is the slice length of the per-slice window statistics.
const subWindow = time.Second

// slices splits the window into sub-windows of about subWindow.
func (w window) slices() (n int, d time.Duration) {
	n = max(1, int(math.Round(float64(w.length)/float64(subWindow))))
	return n, w.length / time.Duration(n)
}

// completed returns the samples that completed inside the window.
func (w window) completed(all []sample) []sample {
	var out []sample
	for _, s := range all {
		if end := s.end(); !end.Before(w.t0) && !end.After(w.stop) {
			out = append(out, s)
		}
	}
	return out
}

// work returns, per sub-window, the operations done in it: each operation
// counts in proportion to the share of its lifetime that falls inside the
// sub-window, so slow operations straddling a boundary split cleanly.
// okOnly counts successful operations only.
func (w window) work(all []sample, okOnly bool) []float64 {
	n, d := w.slices()
	out := make([]float64, n)
	for _, s := range all {
		if (okOnly && !s.ok) || s.lat <= 0 {
			continue
		}
		start, end := s.start.Sub(w.t0), s.end().Sub(w.t0)
		for j := max(int(start/d), 0); j <= min(int(end/d), n-1); j++ {
			a := time.Duration(j) * d
			if ov := min(a+d, end) - max(a, start); ov > 0 {
				out[j] += float64(ov) / float64(s.lat)
			}
		}
	}
	return out
}

// throughput is the median over sub-windows of successful operations per
// second. The median keeps a disturbance of the shared host that covers
// less than half the window from moving the result.
func (w window) throughput(all []sample) float64 {
	_, d := w.slices()
	work := w.work(all, true)
	for j := range work {
		work[j] /= d.Seconds()
	}
	return median(work)
}

// operations is the total work done inside the window, failures included.
func (w window) operations(all []sample) float64 {
	var total float64
	for _, v := range w.work(all, false) {
		total += v
	}
	return total
}

// p50 is the median over sub-windows of each sub-window's median latency
// in milliseconds.
func (w window) p50(all []sample) float64 {
	n, _ := w.slices()
	return w.slicedPercentile(all, 50, n)
}

// tail is the p-th percentile latency taken per slice, over as many equal
// slices (at most one per sub-window) as leave ten samples beyond the
// percentile in each, and reported as the median over the slices; with
// too few samples for two slices it is the whole window's percentile.
func (w window) tail(all []sample, p float64) float64 {
	n, _ := w.slices()
	beyond := float64(len(w.completed(all))) * (100 - p) / 100
	return w.slicedPercentile(all, p, min(n, max(int(beyond/10), 1)))
}

// slicedPercentile cuts the window into k equal slices, groups the
// completed operations by completion time, and returns the median over
// slices of each slice's p-th percentile latency in milliseconds.
func (w window) slicedPercentile(all []sample, p float64, k int) float64 {
	d := w.length / time.Duration(k)
	groups := make([][]sample, k)
	for _, s := range w.completed(all) {
		j := min(max(int(s.end().Sub(w.t0)/d), 0), k-1)
		groups[j] = append(groups[j], s)
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, percentile(latencies(g), p))
		}
	}
	return median(per)
}

// latencies returns the window's latencies in milliseconds, sorted, with
// every failed operation as +Inf: a failure misses any latency limit.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = float64(s.lat) / float64(time.Millisecond)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile is the highest of p99, p95 and p90 that leaves at least
// ten of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// median of unsorted values (the mean of the middle two for an even
// count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so ledger spreads read like the ones the
// benchmark's acceptance is judged by.
func quartiles(v []float64) [3]float64 {
	n := len(v)
	if n < 2 {
		m := median(v)
		return [3]float64{m, m, m}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
