package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rbcast "repro"
	"repro/client"
	"repro/internal/server"
)

// TestTraceOutMatchesDaemon: the -trace-out JSONL of the canonical traced
// scenario (bv4 at t=2, greedy silent band, 16×10) is byte-identical to
// GET /v1/jobs/{id}/trace?job=0 for the same scenario on the handler
// rbcastd serves, and its commit events carry certificates.
func TestTraceOutMatchesDaemon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cli.jsonl")
	args := []string{"-protocol", "bv4", "-t", "2", "-value", "1", "-faults", "greedy", "-strategy", "silent", "-trace-out", path}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	cli, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(cli, []byte(`{"round":`)) || !bytes.Contains(cli, []byte(`"kind":"commit"`)) || !bytes.Contains(cli, []byte(`"certificate"`)) {
		t.Errorf("trace lacks commit events with certificates:\n%.300s", cli)
	}

	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	c := client.New(ts.URL, client.Options{})
	job := rbcast.Job{
		Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1, Trace: true},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
	ctx := context.Background()
	ack, err := c.Submit(ctx, []rbcast.Job{job}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, ack.ID, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + ack.StatusURL + "/trace?job=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	daemon, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace GET: status %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(cli, daemon) {
		t.Errorf("daemon trace (%d bytes) differs from the CLI trace (%d bytes)", len(daemon), len(cli))
	}
}

// TestEnumFlagsTakeWireNames: -protocol, -strategy and -metric accept the
// names of rbcast's wire encoding, Bracha and the equivocator included,
// and reject unknown ones, as -faults does.
func TestEnumFlagsTakeWireNames(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "bracha", "-strategy", "equivocator", "-faults", "greedy", "-metric", "l2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "protocol=bracha ") {
		t.Errorf("report starts %q", out.String())
	}
	for _, flag := range []string{"-protocol", "-strategy", "-metric", "-faults"} {
		if err := run([]string{flag, "bogus"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Errorf("%s bogus: %v, want an error naming the value", flag, err)
		}
	}
}
