package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// TestMapAndTraceRenderWavefront: flood under the Fig 8 band on a 12×6
// torus. Every -trace frame prints the band columns (x = 3 and 9) as F and
// the source as S and leaves the cut-off side (x = 4..8) undecided; each
// round header counts the cells that round commits, committed cells never
// revert, and the last frame is the -map frame.
func TestMapAndTraceRenderWavefront(t *testing.T) {
	const w, h = 12, 6
	var out bytes.Buffer
	args := []string{"-protocol", "flood", "-width", strconv.Itoa(w), "-height", strconv.Itoa(h), "-faults", "band", "-map", "-trace"}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3+h {
		t.Fatalf("output too short:\n%s", out.String())
	}
	mapFrame := lines[3 : 3+h]
	header := regexp.MustCompile(`^round (\d+) \(\+(\d+) commits\):$`)
	var prev []string
	round := 0
	for rest := lines[3+h:]; len(rest) > 1; rest = rest[h+2:] {
		m := header.FindStringSubmatch(rest[0])
		if m == nil || len(rest) < h+2 || rest[h+1] != "" {
			t.Fatalf("malformed round block at %q", rest[0])
		}
		if m[1] != strconv.Itoa(round) {
			t.Fatalf("header %q, want round %d", rest[0], round)
		}
		frame := rest[1 : h+1]
		added := 0
		for y, row := range frame {
			if len(row) != w {
				t.Fatalf("round %d row %d is %q", round, y, row)
			}
			for x := 0; x < w; x++ {
				c := row[x]
				switch {
				case x == 3 || x == 9:
					if c != 'F' {
						t.Errorf("round %d: band cell (%d,%d) is %q, want F", round, x, y, c)
					}
				case x == 0 && y == 0:
					if c != 'S' {
						t.Errorf("round %d: source cell is %q, want S", round, c)
					}
				case x > 3 && x < 9:
					if c != '.' {
						t.Errorf("round %d: cut-off cell (%d,%d) is %q, want .", round, x, y, c)
					}
				}
				was := prev != nil && prev[y][x] != '.'
				now := c != '.'
				if was && !now {
					t.Errorf("round %d: cell (%d,%d) reverted to .", round, x, y)
				}
				if now && !was && c != 'F' {
					added++
				}
			}
		}
		if m[2] != strconv.Itoa(added) {
			t.Errorf("header %q, but %d cells turned committed", rest[0], added)
		}
		prev = frame
		round++
	}
	if round < 2 {
		t.Fatalf("%d round frames, want a wavefront", round)
	}
	if strings.Join(prev, "\n") != strings.Join(mapFrame, "\n") {
		t.Errorf("last round frame\n%s\ndiffers from the -map frame\n%s", strings.Join(prev, "\n"), strings.Join(mapFrame, "\n"))
	}
}
