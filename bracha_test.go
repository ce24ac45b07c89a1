package rbcast_test

import (
	"strings"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// completeGraph builds K_n as a custom GraphSpec.
func completeGraph(n int) *rbcast.GraphSpec {
	spec := &rbcast.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			spec.Edges = append(spec.Edges, [2]int{i, j})
		}
	}
	return spec
}

// breachPlan places five equivocators on K13 — f = 5 > N/3, past the
// quorum-intersection bound the Bracha family needs. Budget overrides the
// placement budget (Config.T = 4 still satisfies the constructor's
// N ≥ 3T+1 check; the breach is the adversary exceeding the assumption,
// not a misconfiguration). Seed 1 places all five off-source.
var breachPlan = rbcast.FaultPlan{
	Placement: rbcast.PlaceRandomBounded,
	Strategy:  rbcast.StrategyEquivocator,
	Budget:    5,
	Count:     5,
	Seed:      1,
}

func k13Config(p rbcast.Protocol) rbcast.Config {
	return rbcast.Config{
		Topology:  rbcast.TopologyCustom,
		Graph:     completeGraph(13),
		Protocol:  p,
		T:         4,
		Value:     1,
		MaxRounds: 64,
	}
}

// TestEquivocatorDeterministic checks that the equivocator's two-faced,
// audience-split volleys keep the simulation fully deterministic: the same
// seed and plan produce byte-identical Results on repeated runs and across
// both engines (sequential lock-step vs concurrent workers).
// Directional transmission is the one place delivery depends on the
// receiver's identity, so this pins that the audience filter sits outside
// every scheduling and loss decision.
func TestEquivocatorDeterministic(t *testing.T) {
	cfg := k13Config(rbcast.ProtocolBracha)

	seq := cfg
	seq.LockStep = true
	first, err := rbcast.Run(seq, breachPlan)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	again, err := rbcast.Run(seq, breachPlan)
	if err != nil {
		t.Fatalf("repeat sequential run: %v", err)
	}
	conc := cfg
	conc.Concurrent = true
	cres, err := rbcast.Run(conc, breachPlan)
	if err != nil {
		t.Fatalf("concurrent run: %v", err)
	}

	h1, err := scenarios.ResultHash(first)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := scenarios.ResultHash(again)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := scenarios.ResultHash(cres)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("repeated sequential runs diverged: %s vs %s", h1, h2)
	}
	if h1 != hc {
		t.Errorf("engines disagree under equivocation: sequential %s, concurrent %s (wrong %d vs %d, undecided %d vs %d)",
			h1, hc, first.Wrong, cres.Wrong, first.Undecided, cres.Undecided)
	}
	if first.Faults != 5 {
		t.Fatalf("breach plan placed %d faults, want 5", first.Faults)
	}
}

// TestEquivocationWhatIf runs the same five-equivocator plan on K13 against
// CPA and Bracha. CPA's commit rule is locally bounded and value-monotone —
// a two-faced neighbor contributes at most one (possibly wrong) vote, and
// with the source flooding the true value every honest node still gathers
// t+1 honest confirmations — so CPA sails through. Bracha's global quorums,
// by contrast, lose intersection once f > N/3: the even/odd split hands
// each audience a different 2f+1 READY quorum, and honest nodes commit the
// equivocators' flipped value. The harness exists to make exactly this kind
// of assumption-sensitivity visible on identical fault plans.
func TestEquivocationWhatIf(t *testing.T) {
	cpaRes, err := rbcast.Run(k13Config(rbcast.ProtocolCPA), breachPlan)
	if err != nil {
		t.Fatalf("cpa run: %v", err)
	}
	brachaRes, err := rbcast.Run(k13Config(rbcast.ProtocolBracha), breachPlan)
	if err != nil {
		t.Fatalf("bracha run: %v", err)
	}

	if cpaRes.Faults != 5 || brachaRes.Faults != 5 {
		t.Fatalf("plans diverged: cpa placed %d faults, bracha %d, want 5", cpaRes.Faults, brachaRes.Faults)
	}
	if !cpaRes.AllCorrect() {
		t.Errorf("cpa should absorb equivocation past the quorum bound: correct %d, wrong %d, undecided %d of %d honest",
			cpaRes.Correct, cpaRes.Wrong, cpaRes.Undecided, cpaRes.Honest)
	}
	if brachaRes.Wrong == 0 {
		t.Errorf("bracha at f > N/3 should lose quorum intersection and commit the flipped value somewhere: correct %d, wrong %d, undecided %d",
			brachaRes.Correct, brachaRes.Wrong, brachaRes.Undecided)
	}
}

// TestEquivocationWithinBound is the control for the what-if: the same
// adversary held to f ≤ T is absorbed by the quorum thresholds, so every
// honest node commits the source's value.
func TestEquivocationWithinBound(t *testing.T) {
	plan := breachPlan
	plan.Budget = 0 // placement budget falls back to Config.T = 4
	plan.Count = 3
	plan.Seed = 3
	res, err := rbcast.Run(k13Config(rbcast.ProtocolBracha), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect() {
		t.Errorf("bracha with %d equivocators under T = 4 should stay all-correct: correct %d, wrong %d, undecided %d",
			res.Faults, res.Correct, res.Wrong, res.Undecided)
	}
}

// TestExplainReadyQuorum renders a traced Bracha run through Explain and
// checks the ready-quorum certificate prose: every decided non-source node
// names the rule and its 2T+1 READY quorum, and the ECHO-quorum sentence
// appears wherever the node's own READY came from the N−T ECHO path.
func TestExplainReadyQuorum(t *testing.T) {
	cfg := k13Config(rbcast.ProtocolBracha)
	cfg.Trace = true
	res, err := rbcast.Run(cfg, rbcast.FaultPlan{
		Placement: rbcast.PlaceRandomBounded,
		Strategy:  rbcast.StrategySilent,
		Count:     4,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect() {
		t.Fatalf("at-threshold bracha run should be all-correct: correct %d of %d", res.Correct, res.Honest)
	}
	faulty := make(map[rbcast.Node]bool, len(res.Faulty))
	for _, n := range res.Faulty {
		faulty[n] = true
	}
	source := rbcast.Node{X: 0, Y: 0}
	sawEchoQuorum := false
	explained := 0
	for n, d := range res.Decisions {
		if !d.Decided || faulty[n] || n == source {
			continue
		}
		explained++
		out, err := rbcast.Explain(res, n)
		if err != nil {
			t.Fatalf("Explain(%v): %v", n, err)
		}
		if !strings.Contains(out, `rule "ready-quorum"`) {
			t.Errorf("node %v explanation lacks the ready-quorum rule:\n%s", n, out)
		}
		if !strings.Contains(out, "2f+1 delivery quorum") {
			t.Errorf("node %v explanation lacks the READY quorum sentence:\n%s", n, out)
		}
		if strings.Contains(out, "N−f ECHO quorum") {
			sawEchoQuorum = true
		}
	}
	if explained == 0 {
		t.Fatal("no non-source honest node decided — nothing explained")
	}
	if !sawEchoQuorum {
		t.Error("no explanation showed the ECHO-quorum path on a silent-fault run")
	}
}

// TestBrachaQuorumValidation pins the N ≥ 3T+1 rejection for the quorum
// family on a graph that is too small for its fault bound.
func TestBrachaQuorumValidation(t *testing.T) {
	cfg := k13Config(rbcast.ProtocolBracha)
	cfg.T = 5 // 3·5+1 = 16 > 13
	_, err := rbcast.Run(cfg, rbcast.FaultPlan{})
	if err == nil {
		t.Fatal("Run accepted N = 13 with T = 5 for a quorum protocol")
	}
	for _, frag := range []string{"N ≥ 3T+1", "bracha"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}
