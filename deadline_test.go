package rbcast

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// deadlineScenario is a small scenario both engines accept; the deadline
// tests run it under contexts that are already done, so its size only has
// to be valid, not slow.
func deadlineScenario() (Config, FaultPlan) {
	return Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolBV4, T: 2, Value: 1},
		FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent}
}

func TestRunContextExpiredDeadlineIsPartial(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		cfg, plan := deadlineScenario()
		cfg.Concurrent = concurrent

		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := RunContext(ctx, cfg, plan)
		if err == nil {
			t.Fatalf("concurrent=%v: expired deadline produced no error", concurrent)
		}
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("concurrent=%v: error does not wrap ErrDeadline: %v", concurrent, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("concurrent=%v: error does not wrap context.DeadlineExceeded: %v", concurrent, err)
		}
		// The partial result is still a scored Result over the full grid —
		// just one that never ran a round and never quiesced.
		if res.Honest == 0 || res.Rounds != 0 || res.Quiesced {
			t.Errorf("concurrent=%v: partial result not scored at round 0: honest=%d rounds=%d quiesced=%v",
				concurrent, res.Honest, res.Rounds, res.Quiesced)
		}
	}
}

func TestRunContextCancellationIsPartial(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		cfg, plan := deadlineScenario()
		cfg.Concurrent = concurrent

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunContext(ctx, cfg, plan)
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
			t.Errorf("concurrent=%v: cancelled run error = %v, want ErrDeadline wrapping context.Canceled",
				concurrent, err)
		}
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg, plan := deadlineScenario()
	want, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Correct != want.Correct || got.Rounds != want.Rounds || got.Broadcasts != want.Broadcasts {
		t.Errorf("RunContext(Background) diverges from Run: %+v vs %+v", got, want)
	}
}

func TestRunBatchJobTimeout(t *testing.T) {
	cfg, plan := deadlineScenario()
	jobs := []Job{{Config: cfg, Plan: plan}}

	// A vanishing timeout deadlines the job; a generous one does not. Both
	// go through the same WithTimeout plumbing.
	out, _ := RunSweepJobs(jobs, BatchOptions{JobTimeout: time.Nanosecond})
	if len(out) != 1 || !errors.Is(out[0].Err, ErrDeadline) {
		t.Fatalf("1ns timeout: %+v, want ErrDeadline", out)
	}
	if out[0].Result.Honest == 0 || out[0].Result.Quiesced {
		t.Errorf("1ns timeout: partial result not scored: %+v", out[0].Result)
	}

	out, _ = RunSweepJobs(jobs, BatchOptions{JobTimeout: time.Minute})
	if out[0].Err != nil {
		t.Fatalf("1m timeout: unexpected error %v", out[0].Err)
	}
	if !out[0].Result.Quiesced {
		t.Error("1m timeout: run did not complete")
	}
}

// TestRunSweepJobsTimeoutCutsWholeUnits pins what JobTimeout bounds: one
// execution unit. Under a vanishing timeout, a crash-round fork family
// shares its trunk, so it is cut together and every member carries the
// trunk's one partial state; an unrelated job in the same call is its own
// unit and is cut on its own.
func TestRunSweepJobsTimeoutCutsWholeUnits(t *testing.T) {
	family, err := SweepSpec{
		Base: Job{
			Config: Config{Width: 16, Height: 12, Radius: 1, Protocol: ProtocolFlood, Value: 1},
			Plan:   FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash},
		},
		Axes: SweepAxes{CrashRounds: []int{2, 3, 4, 5}},
	}.Elements()
	if err != nil {
		t.Fatal(err)
	}
	cfg, plan := deadlineScenario()
	jobs := append(family, Job{Config: cfg, Plan: plan})

	out, stats := RunSweepJobs(jobs, BatchOptions{JobTimeout: time.Nanosecond})
	for i, br := range out {
		if !errors.Is(br.Err, ErrDeadline) {
			t.Fatalf("job %d: err = %v, want ErrDeadline", i, br.Err)
		}
		if br.Result.Honest == 0 || br.Result.Quiesced {
			t.Errorf("job %d: partial result not scored: %+v", i, br.Result)
		}
	}
	if stats.Simulations != 2 {
		t.Errorf("Simulations = %d, want 2: the family's trunk and the unrelated job", stats.Simulations)
	}
	shared := sweepHash(t, out[0].Result)
	for i := 1; i < len(family); i++ {
		if sweepHash(t, out[i].Result) != shared {
			t.Errorf("family member %d was not cut to the trunk's partial state", i)
		}
	}
	if sweepHash(t, out[len(family)].Result) == shared {
		t.Error("the unrelated job carries the family's partial state")
	}
}

func TestRunBatchPanicIsolation(t *testing.T) {
	// Three distinct jobs, so each is its own execution unit: identical
	// jobs would share one execution, and so one panic.
	cfg, plan := deadlineScenario()
	var jobs []Job
	for _, bound := range []int{2, 1, 0} {
		cfg.T = bound
		jobs = append(jobs, Job{Config: cfg, Plan: plan})
	}

	// The dispatch hook runs inside each unit's recover scope, so a panic
	// here is indistinguishable from a panicking scenario.
	unitDispatched = func(i int) {
		if i == 1 {
			panic("synthetic job bug")
		}
	}
	defer func() { unitDispatched = nil }()

	out, _ := RunSweepJobs(jobs, BatchOptions{})
	var pe *PanicError
	if !errors.As(out[1].Err, &pe) {
		t.Fatalf("job 1 error = %v, want *PanicError", out[1].Err)
	}
	if pe.Index != 1 || pe.Value != "synthetic job bug" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = index %d value %v stack %d bytes", pe.Index, pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "job 1 panicked") {
		t.Errorf("PanicError message = %q", pe.Error())
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil || !out[i].Result.Quiesced {
			t.Errorf("sibling job %d damaged by the panic: err=%v quiesced=%v",
				i, out[i].Err, out[i].Result.Quiesced)
		}
	}
}

func TestPanicErrorSyncRendering(t *testing.T) {
	pe := &PanicError{Index: -1, Value: "boom"}
	if got := pe.Error(); !strings.Contains(got, "scenario panicked") || strings.Contains(got, "job") {
		t.Errorf("sync PanicError message = %q", got)
	}
}
