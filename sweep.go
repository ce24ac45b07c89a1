package rbcast

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/protocol"
)

// MaxSweepElements bounds a single sweep expansion. The limit protects the
// serving path (one /v1/sweep request plans the whole grid server-side);
// larger grids should be split into multiple sweeps.
const MaxSweepElements = 4096

// SweepAxes lists the parameter values a sweep ranges over. Empty axes keep
// the base job's value; the expansion is the cross product of the non-empty
// axes, ordered with Placements outermost, then Ts, then Seeds, then
// CrashRounds innermost.
type SweepAxes struct {
	// Ts ranges Config.T (the per-neighborhood fault bound).
	Ts []int `json:"ts,omitempty"`
	// Seeds ranges Plan.Seed (the randomized-placement stream).
	Seeds []int64 `json:"seeds,omitempty"`
	// CrashRounds ranges Plan.CrashRound (crash-stop divergence time).
	CrashRounds []int `json:"crash_rounds,omitempty"`
	// Placements ranges Plan.Placement (the fault-band family).
	Placements []Placement `json:"placements,omitempty"`
}

// SweepSpec is a parameter grid: one base job plus the axes that vary. The
// JSON encoding is the /v1/sweep request body (see API.md).
type SweepSpec struct {
	Base Job       `json:"base"`
	Axes SweepAxes `json:"axes"`
}

// Elements expands the grid into concrete jobs, in the documented axis
// order. It fails when the cross product exceeds MaxSweepElements.
func (s SweepSpec) Elements() ([]Job, error) {
	axis := func(l int) int {
		if l == 0 {
			return 1
		}
		return l
	}
	a := s.Axes
	// The cap is checked after every factor: the full product of four
	// request-sized axes can wrap int and pass a single final check.
	total := 1
	for _, l := range []int{len(a.Placements), len(a.Ts), len(a.Seeds), len(a.CrashRounds)} {
		total *= axis(l)
		if total > MaxSweepElements {
			return nil, fmt.Errorf("rbcast: sweep expands to more than %d elements", MaxSweepElements)
		}
	}
	jobs := make([]Job, 0, total)
	for pi := 0; pi < axis(len(a.Placements)); pi++ {
		for ti := 0; ti < axis(len(a.Ts)); ti++ {
			for si := 0; si < axis(len(a.Seeds)); si++ {
				for ci := 0; ci < axis(len(a.CrashRounds)); ci++ {
					j := s.Base
					if len(a.Placements) > 0 {
						j.Plan.Placement = a.Placements[pi]
					}
					if len(a.Ts) > 0 {
						j.Config.T = a.Ts[ti]
					}
					if len(a.Seeds) > 0 {
						j.Plan.Seed = a.Seeds[si]
					}
					if len(a.CrashRounds) > 0 {
						j.Plan.CrashRound = a.CrashRounds[ci]
					}
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs, nil
}

// SweepStats accounts for the work a sweep shared. NodeRounds versus
// ScalarNodeRounds is the headline: simulated node-rounds actually spent
// versus what running every element independently would have spent on
// the same grid.
type SweepStats struct {
	// Elements is the grid size.
	Elements int `json:"elements"`
	// Simulations counts engine executions actually run (forked
	// continuations included); Elements − Simulations results were shared.
	Simulations int `json:"simulations"`
	// Forks counts simulations that continued from a shared wavefront
	// prefix instead of starting at round 0.
	Forks int `json:"forks"`
	// SharedResults counts elements whose Result was produced by another
	// element's execution (identical execution key, or a trunk that
	// terminated before the element's crash round mattered).
	SharedResults int `json:"shared_results"`
	// NodeRounds is the simulated work actually performed: Σ rounds × N
	// over executions, counting forked continuations only past their fork
	// point.
	NodeRounds int64 `json:"node_rounds"`
	// ScalarNodeRounds is the work an element-by-element batch would have
	// performed: Σ rounds × N over all elements.
	ScalarNodeRounds int64 `json:"scalar_node_rounds"`
	// PrefixNodeRoundsSaved is the portion of the saving attributable to
	// wavefront-prefix forking alone (fork round × N per fork).
	PrefixNodeRoundsSaved int64 `json:"prefix_node_rounds_saved,omitempty"`
}

// add merges per-unit stats.
func (s *SweepStats) add(o SweepStats) {
	s.Simulations += o.Simulations
	s.Forks += o.Forks
	s.SharedResults += o.SharedResults
	s.NodeRounds += o.NodeRounds
	s.ScalarNodeRounds += o.ScalarNodeRounds
	s.PrefixNodeRoundsSaved += o.PrefixNodeRoundsSaved
}

// sweepGroup is one distinct execution: the element indices that share it
// and, for fork families, the representative crash round.
type sweepGroup struct {
	indices []int // ascending element indices sharing one execution
	crash   int   // representative Plan.CrashRound (fork families only)
}

// RunSweep expands the grid and executes it with cross-element work sharing.
// Results are per element, in element order, each byte-identical
// (Metrics.Wall aside) to an independent Run of that element — sharing is an
// execution strategy, never a semantic. The returned error only reports an
// invalid spec (oversized grid); per-element failures travel in their
// BatchResult exactly as in RunSweepJobs.
func RunSweep(spec SweepSpec, opts BatchOptions) ([]BatchResult, SweepStats, error) {
	jobs, err := spec.Elements()
	if err != nil {
		return nil, SweepStats{}, err
	}
	results, stats := RunSweepJobs(jobs, opts)
	return results, stats, nil
}

// RunSweepJobs is the executor for every multi-job caller: the rbcastd
// batch and sweep endpoints, cmd/analyze -sweep, the threshold-sweep
// example and the sweep experiments. It executes the jobs across a bounded worker pool and returns
// one result per job, in job order, each byte-identical (Metrics.Wall
// aside) to an independent Run of that job, at any worker count. Sharing
// has two layers:
//
//  1. Execution-key grouping: jobs that differ only in provably dead
//     parameters (see executionKey) share one simulation.
//  2. Wavefront-prefix forking: crash-fault jobs identical up to the
//     crash round run as one trunk engine that is forked at each divergence
//     boundary (sim.Engine.Fork), so the shared delivery-wavefront prefix
//     is simulated once.
//
// Jobs that share an execution share the same Result value — treat results
// as read-only. An execution unit — one shared execution, or one fork
// family — is also the unit of failure: a panic fails the unit's jobs with
// a *PanicError instead of crashing the process, and BatchOptions.Context
// and JobTimeout cut whole units, leaving every other unit to complete.
func RunSweepJobs(jobs []Job, opts BatchOptions) ([]BatchResult, SweepStats) {
	results := make([]BatchResult, len(jobs))
	stats := SweepStats{Elements: len(jobs)}
	tracker := newProgressTracker(opts.Progress, len(jobs))
	tr, parent := obs.SpanFromContext(opts.Context)
	planSp := tr.Start(parent, "sweep_plan")

	// Layer 1: group element indices by execution key.
	byKey := make(map[string]*sweepGroup)
	var order []*sweepGroup
	for i := range jobs {
		k := jobs[i].executionKey()
		g := byKey[k]
		if g == nil {
			g = &sweepGroup{}
			byKey[k] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
	}

	// Layer 2: bundle fork-eligible groups into crash families. Groups in
	// one family run identically until their crash rounds diverge, so the
	// family executes as a single trunk engine forked at each boundary.
	var units [][]*sweepGroup
	families := make(map[string]int) // family key -> units index
	for _, g := range order {
		job := jobs[g.indices[0]]
		if !forkEligible(job) {
			units = append(units, []*sweepGroup{g})
			continue
		}
		g.crash = job.Plan.CrashRound
		famJob := job
		famJob.Plan.CrashRound = 0
		famKey := famJob.executionKey()
		if ui, ok := families[famKey]; ok {
			units[ui] = append(units[ui], g)
		} else {
			families[famKey] = len(units)
			units = append(units, []*sweepGroup{g})
		}
	}
	for _, gs := range units {
		// Distinct groups in a family necessarily have distinct crash
		// rounds (everything else about their keys is equal), so ascending
		// insertion sort fixes the trunk (max) and the fork order.
		for i := 1; i < len(gs); i++ {
			for j := i; j > 0 && gs[j-1].crash > gs[j].crash; j-- {
				gs[j-1], gs[j] = gs[j], gs[j-1]
			}
		}
	}

	ctx := opts.Context
	tr.AnnotateInt(planSp, "elements", int64(len(jobs)))
	tr.AnnotateInt(planSp, "units", int64(len(units)))
	tr.End(planSp)
	unitStats := make([]SweepStats, len(units))
	pool.Run(opts.Workers, len(units), func(ui int) {
		gs := units[ui]
		// Unit progress folds in a defer so cancelled and panicking units
		// still count toward Done — a watcher must converge on Total.
		elements := 0
		for _, g := range gs {
			elements += len(g.indices)
		}
		unitSp := tr.Start(parent, "job")
		tr.AnnotateInt(unitSp, "elements", int64(elements))
		tr.AnnotateInt(unitSp, "groups", int64(len(gs)))
		defer func() {
			tr.End(unitSp)
			st := &unitStats[ui]
			tracker.add(elements, st.NodeRounds, st.SharedResults)
		}()
		defer func() {
			if r := recover(); r != nil {
				for _, g := range gs {
					for _, i := range g.indices {
						results[i] = BatchResult{Err: &PanicError{Index: i, Value: r, Stack: debug.Stack()}}
					}
				}
			}
		}()
		if hook := unitDispatched; hook != nil {
			hook(ui)
		}
		// The check sits immediately before the run so cancellation
		// arriving any time up to the unit's start is observed without
		// paying for a run that is already unwanted; cancellation after the
		// start is the engines' round-boundary check.
		if ctx != nil {
			select {
			case <-ctx.Done():
				for _, g := range gs {
					for _, i := range g.indices {
						results[i].Err = ctx.Err()
					}
				}
				return
			default:
			}
		}
		unitCtx := ctx
		if unitCtx == nil {
			unitCtx = context.Background()
		}
		if opts.JobTimeout > 0 {
			var cancel context.CancelFunc
			unitCtx, cancel = context.WithTimeout(unitCtx, opts.JobTimeout)
			defer cancel()
		}
		unitCtx = obs.ContextWith(unitCtx, tr, unitSp)
		st := &unitStats[ui]
		if len(gs) == 1 {
			g := gs[0]
			job := jobs[g.indices[0]]
			res, err := RunContext(unitCtx, job.Config, job.Plan)
			finishGroup(results, g, res, err, st)
			st.Simulations++
			countRounds(st, res, err, len(g.indices), 0)
			return
		}
		runCrashFamily(unitCtx, jobs, gs, results, st)
	})
	for i := range unitStats {
		stats.add(unitStats[i])
	}
	return results, stats
}

// unitDispatched, when non-nil, runs with each execution unit's index
// after the pool hands the unit to a worker and before the unit's
// cancellation check, inside its panic-recovery scope. It is a test seam:
// a panic in it is indistinguishable from a panicking scenario, and
// cancelling the context in it models cancellation arriving in the
// dispatch-to-start window (deterministic under Workers=1, where units run
// in order of their first job).
var unitDispatched func(ui int)

// forkEligible reports whether a job can join a wavefront-prefix fork
// family: sequential deterministic engine on the ideal medium, untraced,
// crash-stop faults diverging at round ≥ 1, and a protocol whose processes
// are cloneable (sim.CloneableProcess — flood and CPA today). Everything
// else still sweeps, just without the prefix layer.
func forkEligible(j Job) bool {
	c, p := j.Config, j.Plan
	if c.Concurrent || c.Trace || c.LossRate != 0 {
		return false
	}
	if c.Protocol != ProtocolFlood && c.Protocol != ProtocolCPA {
		return false
	}
	strategy := p.Strategy
	if strategy == 0 {
		strategy = StrategyCrash
	}
	if strategy != StrategyCrash || p.CrashRound < 1 {
		return false
	}
	placement := p.Placement
	return placement != 0 && placement != PlaceNone
}

// finishGroup assigns one execution's outcome to every element that shares
// it, counting the sharing.
func finishGroup(results []BatchResult, g *sweepGroup, res Result, err error, st *SweepStats) {
	for _, i := range g.indices {
		results[i] = BatchResult{Result: res, Err: err}
	}
	st.SharedResults += len(g.indices) - 1
}

// countRounds books one execution's node-rounds: the actual work skips the
// forked-over prefix (forkedFrom rounds), the scalar-equivalent work charges
// the full run once per element sharing it. Rejected configs (zero results)
// book nothing.
func countRounds(st *SweepStats, res Result, err error, elements int, forkedFrom int) {
	if err != nil && !errors.Is(err, ErrDeadline) {
		return
	}
	size := int64(len(res.Decisions))
	rounds := int64(res.Rounds)
	st.NodeRounds += (rounds - int64(forkedFrom)) * size
	st.ScalarNodeRounds += rounds * size * int64(elements)
	st.PrefixNodeRoundsSaved += int64(forkedFrom) * size
}

// runCrashFamily executes a fork family: the trunk engine carries the
// latest crash round (the longest undisturbed wavefront) and is paused at
// each earlier element's divergence boundary — the frame before its crash
// round — where a forked engine finishes that element independently. A
// branch's state at its fork point is exactly the state an independent run
// would have reached (the crash schedules agree on every executed round),
// so results stay byte-identical to scalar runs. If the trunk terminates
// before a boundary, the remaining elements provably share its final state:
// their crashes would only have silenced nodes in rounds the execution
// never reached.
func runCrashFamily(ctx context.Context, jobs []Job, gs []*sweepGroup, results []BatchResult, st *SweepStats) {
	tr, unitSp := obs.SpanFromContext(ctx)
	trunk := gs[len(gs)-1]
	trunkJob := jobs[trunk.indices[0]]
	pr, err := prepare(trunkJob.Config, trunkJob.Plan)
	if err != nil {
		// The family shares every execution-relevant parameter except the
		// crash round, which cannot cause a rejection — so a rejected trunk
		// rejects every member identically.
		for _, g := range gs {
			for _, i := range g.indices {
				results[i].Err = err
			}
		}
		return
	}
	collector := metrics.New()
	eng, err := protocol.NewEngine(pr.runConfig(pr.params(collector), ctx))
	if err == nil && !eng.Forkable() {
		err = errors.New("rbcast: internal: fork family engine not forkable")
	}
	if err != nil {
		// Unexpected for eligible families; recover by running each group
		// independently (still sharing within each group).
		for _, g := range gs {
			job := jobs[g.indices[0]]
			res, rerr := RunContext(ctx, job.Config, job.Plan)
			finishGroup(results, g, res, rerr, st)
			st.Simulations++
			countRounds(st, res, rerr, len(g.indices), 0)
		}
		return
	}

	start := time.Now()
	size := int64(pr.net.Size())
	// finish assembles one group's public Result from an engine outcome and
	// fans it out to the group's elements.
	finish := func(g *sweepGroup, gpr prepared, c *metrics.Collector, out protocol.Outcome, runErr error) {
		wall := time.Since(start)
		res := newResult(gpr.net, out, gpr.faulty)
		res.Metrics = newMetrics(c.Snapshot(), wall)
		if runErr != nil {
			runErr = fmt.Errorf("%w: %w", ErrDeadline, runErr)
		}
		finishGroup(results, g, res, runErr, st)
	}

	for bi := 0; bi < len(gs)-1; bi++ {
		g := gs[bi]
		boundary := g.crash - 1
		done, runErr := eng.RunUntil(boundary)
		if runErr != nil || done {
			// Deadline: every remaining element shares the trunk's partial
			// state (deadlines cut whole units — see BatchOptions.JobTimeout).
			// Termination at or before the boundary: the remaining crash
			// rounds all lie beyond the execution's horizon (they exceed
			// this boundary, which the run never reached), so the trunk's
			// final state *is* each remaining element's exact result.
			trunkRes := eng.Result()
			rounds := int64(trunkRes.Stats.Rounds)
			st.Simulations++
			st.NodeRounds += rounds * size
			for ri, rem := range gs[bi:] {
				remPr, perr := prepare(jobs[rem.indices[0]].Config, jobs[rem.indices[0]].Plan)
				if perr != nil {
					for _, i := range rem.indices {
						results[i].Err = perr
					}
					continue
				}
				out := protocol.Score(remPr.runConfig(remPr.params(nil), ctx), trunkRes)
				finish(rem, remPr, collector.Clone(), out, runErr)
				st.ScalarNodeRounds += rounds * size * int64(len(rem.indices))
				if ri > 0 {
					st.SharedResults++ // the group's execution itself came from the trunk
				}
			}
			return
		}
		// Fork the branch for this crash round and run it to completion.
		fpr, perr := prepare(jobs[g.indices[0]].Config, jobs[g.indices[0]].Plan)
		if perr != nil {
			for _, i := range g.indices {
				results[i].Err = perr
			}
			continue
		}
		fc := collector.Clone()
		fsp := tr.Start(unitSp, "fork")
		tr.AnnotateInt(fsp, "crash_round", int64(g.crash))
		feng, ferr := eng.Fork(fpr.faulty.crash, fc)
		if ferr != nil {
			tr.End(fsp)
			for _, i := range g.indices {
				results[i].Err = ferr
			}
			continue
		}
		fres, frunErr := feng.Run()
		tr.AnnotateInt(fsp, "rounds", int64(fres.Stats.Rounds))
		tr.End(fsp)
		out := protocol.Score(fpr.runConfig(fpr.params(nil), ctx), fres)
		finish(g, fpr, fc, out, frunErr)
		st.Simulations++
		st.Forks++
		rounds := int64(fres.Stats.Rounds)
		st.NodeRounds += (rounds - int64(boundary)) * size
		st.ScalarNodeRounds += rounds * size * int64(len(g.indices))
		st.PrefixNodeRoundsSaved += int64(boundary) * size
	}
	// The trunk runs to completion last.
	tres, trunErr := eng.Run()
	out := protocol.Score(pr.runConfig(pr.params(nil), ctx), tres)
	finish(trunk, pr, collector, out, trunErr)
	st.Simulations++
	rounds := int64(tres.Stats.Rounds)
	st.NodeRounds += rounds * size
	st.ScalarNodeRounds += rounds * size * int64(len(trunk.indices))
}
