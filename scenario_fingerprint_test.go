package rbcast_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// TestScenarioFingerprintsStable pins Job.Fingerprint() for every canonical
// scenario against testdata/scenario_fingerprints.golden. The torus entries
// predate the Graph interface refactor, so this is the refactor's
// compatibility gate: a torus scenario hashing differently means deployed
// rbcastd caches and recorded results no longer match their keys. The
// non-torus entries pin the new families' canonical encodings the same way.
// -update regenerates the file from the current matrix; review the diff
// line by line, because any change to an existing line silently
// invalidates every persistent cache keyed on Fingerprint.
func TestScenarioFingerprintsStable(t *testing.T) {
	const golden = "testdata/scenario_fingerprints.golden"
	matrix := scenarios.Matrix()

	if *rbcast.UpdateGolden {
		var b strings.Builder
		for _, sc := range matrix {
			fmt.Fprintf(&b, "%s\t%s\n", sc.Name, rbcast.Job{Config: sc.Config, Plan: sc.Plan}.Fingerprint())
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := loadGoldenFile(t, golden)
	seen := make(map[string]bool, len(want))
	for _, sc := range matrix {
		got := rbcast.Job{Config: sc.Config, Plan: sc.Plan}.Fingerprint()
		w, ok := want[sc.Name]
		if !ok {
			t.Errorf("%s: missing from %s — append it (go test -run TestScenarioFingerprintsStable -update ./) and verify no existing line changed", sc.Name, golden)
			continue
		}
		if got != w {
			t.Errorf("%s: fingerprint %s, golden %s — the canonical encoding drifted; persistent caches keyed on Fingerprint are invalidated", sc.Name, got, w)
		}
		seen[sc.Name] = true
	}
	var orphans []string
	for name := range want {
		if !seen[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("golden entry %q has no scenario — matrix and golden file drifted", name)
	}
}

// TestEncodersMatchReferences holds the append-built canonical bytes and
// the struct execution key to their fmt-rendered references
// (rbcast.CheckEncoders) on every matrix scenario and every element of
// the canonical sweep grids.
func TestEncodersMatchReferences(t *testing.T) {
	var jobs []rbcast.Job
	for _, sc := range scenarios.Matrix() {
		jobs = append(jobs, rbcast.Job{Config: sc.Config, Plan: sc.Plan})
	}
	for _, g := range scenarios.SweepGrids() {
		elements, err := g.Spec.Elements()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, elements...)
	}
	if err := rbcast.CheckEncoders(jobs); err != nil {
		t.Fatal(err)
	}
}

// TestNonTorusScenariosEndToEnd is the tentpole's acceptance check in test
// form: every non-torus scenario of the matrix runs through the public
// surface, produces a stable fingerprint, and reports a coherent Result
// (decisions keyed (id, 0), honest + faulty partitioning the graph).
func TestNonTorusScenariosEndToEnd(t *testing.T) {
	ran := 0
	families := map[rbcast.Topology]bool{}
	for _, sc := range scenarios.Matrix() {
		if sc.Config.Topology == 0 || sc.Config.Topology == rbcast.TopologyTorus {
			continue
		}
		sc := sc
		ran++
		families[sc.Config.Topology] = true
		t.Run(sc.Name, func(t *testing.T) {
			res, err := rbcast.Run(sc.Config, sc.Plan)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			size := len(res.Decisions)
			if size == 0 {
				t.Fatal("no decisions recorded")
			}
			if res.Honest+res.Faults != size {
				t.Errorf("honest %d + faults %d != %d nodes", res.Honest, res.Faults, size)
			}
			for n := range res.Decisions {
				if n.Y != 0 || n.X < 0 || n.X >= size {
					t.Fatalf("non-torus decision key %v, want (id, 0) with id in [0, %d)", n, size)
				}
			}
			if !res.Safe() {
				t.Errorf("flood/cpa/bracha under these plans must stay safe; got %d wrong", res.Wrong)
			}
		})
	}
	if ran < 2 || len(families) < 2 {
		t.Fatalf("matrix carries %d non-torus scenarios in %d families, want ≥ 2 scenarios across ≥ 2 families", ran, len(families))
	}
}
