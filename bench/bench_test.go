package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/scenarios"
	"repro/internal/server"
)

// testFixture builds the fixture against the repository's golden file.
func testFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := newFixture(1, "../"+goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestSaltInvariance pins the salting rule every fresh request relies on:
// for every matrix scenario and every sweep-grid element, the salted job
// is a new cache key with a byte-identical result. It fails when a
// scenario stops quiescing below its round bound.
func TestSaltInvariance(t *testing.T) {
	fx := testFixture(t)
	check := func(name string, job rbcast.Job, want digest) {
		t.Helper()
		s := salted(job, 12345)
		if s.Fingerprint() == job.Fingerprint() {
			t.Errorf("%s: salted fingerprint equals the unsalted one", name)
		}
		res, err := rbcast.Run(s.Config, s.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := resultHash(res)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: salted result hash %x, want %x", name, got[:6], want[:6])
		}
	}
	for _, s := range append(append([]scenario(nil), fx.all...), fx.exactAt) {
		check(s.name, s.job, s.want)
	}
	for _, g := range fx.grids {
		jobs, err := g.spec.Elements()
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			check(g.name, j, g.want[i])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestFailuresCountAsInfinite checks that a failed operation misses every
// latency limit: it sorts beyond every success and owns the tail once
// failures exceed the percentile's share.
func TestFailuresCountAsInfinite(t *testing.T) {
	var s []sample
	for i := 1; i <= 98; i++ {
		s = append(s, sample{lat: time.Duration(i) * time.Millisecond, ok: true})
	}
	s = append(s, sample{lat: time.Millisecond, ok: false}, sample{lat: time.Millisecond, ok: false})
	lat := latencies(s)
	if got := percentile(lat, 50); got != 50 {
		t.Errorf("p50 = %g ms, want 50", got)
	}
	if got := percentile(lat, 98); got != 98 {
		t.Errorf("p98 = %g ms, want 98", got)
	}
	if got := percentile(lat, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g ms with 2%% failures, want +Inf", got)
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4)
// and statistics.quantiles([3, 1, 2], n=4).
func TestQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(v), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{3, 1, 2}), [3]float64{1, 2, 3}; got != want {
		t.Errorf("quartiles(1..3) = %v, want %v", got, want)
	}
}

// TestVerifyReadsServerBodies checks the wire digest against the real
// server's encoding: every served scenario's /v1/run body hashes to its
// golden entry without the decoding fallback, and a flipped decision is
// caught.
func TestVerifyReadsServerBodies(t *testing.T) {
	fx := testFixture(t)
	srv := httptest.NewServer(newServer(0, 0))
	defer srv.Close()
	for _, s := range fx.all {
		body, err := json.Marshal(server.RunRequest{Config: s.job.Config, Plan: s.job.Plan})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		raw, ok := cutResult(buf.Bytes())
		if !ok {
			t.Fatalf("%s: cannot cut the result from %.80q", s.name, buf.Bytes())
		}
		if wireDigest(raw) != s.want {
			t.Errorf("%s: wire digest differs from the golden hash", s.name)
		}
		bad := bytes.Replace(raw, []byte(`"value":1,"decided":true`), []byte(`"decided":true`), 1)
		if bytes.Equal(bad, raw) {
			continue // no decided-1 node to flip
		}
		if err := verify(bad, s.want); err == nil {
			t.Errorf("%s: verify accepted a result with a flipped decision", s.name)
		}
	}
}

// TestReplay checks the engine split on every sequential-engine matrix
// scenario: the rebuilt engine matches the library Result and a replay of
// the recorded calls reproduces its broadcasts and decisions.
func TestReplay(t *testing.T) {
	for _, sc := range scenarios.Matrix() {
		if sc.Config.Concurrent {
			continue
		}
		rb, err := rebuild(rbcast.Job{Config: sc.Config, Plan: sc.Plan})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		rec, err := rb.record()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		dec, queued := rb.replay(rec)
		if err := rb.check(rec, dec, queued); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if sc.Name != "flood/seq/32x32r2" {
			continue
		}
		// The check is not vacuous: a replay missing the second half of
		// the deliveries must diverge.
		rec.calls = rec.calls[:len(rec.calls)/2]
		dec, queued = rb.replay(rec)
		if rb.check(rec, dec, queued) == nil {
			t.Errorf("%s: a truncated replay passed the check", sc.Name)
		}
	}
}

// TestWorkloadsRunClean drives every workload through one setup and a
// short window and expects no failed operation.
func TestWorkloadsRunClean(t *testing.T) {
	fx := testFixture(t)
	for i, wl := range workloads() {
		h := newHarness(fx, wl, i)
		if _, err := h.setup(0); err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		h.measure(0, 300*time.Millisecond, false)
		h.close()
		attempted, failed, first := h.counts()
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: %d of %d operations failed; first: %v", wl.name, failed, attempted, first)
		}
	}
}

// TestDefinitionMatchesWorkloads keeps BENCHMARK.json and the code in step.
func TestDefinitionMatchesWorkloads(t *testing.T) {
	def, err := loadDefinition("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range def.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
