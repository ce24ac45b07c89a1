// Threshold-sweep: sweep the per-neighborhood fault bound t across the
// paper's bounds for each protocol and print the success/failure crossover —
// the empirical counterpart of the theorems' threshold table.
//
// Byzantine protocols face the strongest legal band adversary at each t
// (greedy checkerboard-first packing) plus the exact Fig 13 construction at
// the impossibility point; the crash column uses the Fig 8 band.
//
// The whole sweep is dispatched as one rbcast.RunSweepJobs call: every (t,
// protocol) cell is a job, executed across GOMAXPROCS workers, with results
// returned in job order so the printed table is identical to a sequential
// loop.
package main

import (
	"fmt"
	"log"

	"repro"
)

const columns = 4 // bv4, bv2, cpa, flood

func main() {
	const r = 1
	fmt.Printf("r = %d: Byzantine threshold t < %.1f (max %d), crash threshold t < %d\n\n",
		r, float64(r*(2*r+1))/2, rbcast.MaxByzantineLinf(r), rbcast.MinImpossibleCrashLinf(r))

	fmt.Println("t   bv4(band)  bv2(band)  cpa(band)  flood(crash band)")
	tMax := rbcast.MinImpossibleCrashLinf(r)

	var jobs []rbcast.Job
	for t := 0; t <= tMax; t++ {
		for _, proto := range []rbcast.Protocol{rbcast.ProtocolBV4, rbcast.ProtocolBV2, rbcast.ProtocolCPA} {
			jobs = append(jobs, byzJob(proto, r, t))
		}
		jobs = append(jobs, crashJob(r, t))
	}
	results, _ := rbcast.RunSweepJobs(jobs, rbcast.BatchOptions{})

	for t := 0; t <= tMax; t++ {
		row := fmt.Sprintf("%-3d", t)
		for i := 0; i < columns; i++ {
			br := results[t*columns+i]
			if br.Err != nil {
				log.Fatalf("threshold-sweep: %v", br.Err)
			}
			row += fmt.Sprintf(" %-10s", cell(br.Result))
		}
		fmt.Println(row)
	}
	fmt.Println("\n'ok' = every honest node committed correctly; 'stall' = some never decided.")
	fmt.Println("The Byzantine column flips exactly at t =", rbcast.MinImpossibleByzantineLinf(r),
		"and the crash column at t =", rbcast.MinImpossibleCrashLinf(r), "— the paper's exact thresholds.")
}

// byzJob builds one Byzantine scenario: the strongest band placement the
// budget t admits (at the impossibility point this is the full Fig 13
// checkerboard).
func byzJob(proto rbcast.Protocol, r, t int) rbcast.Job {
	cfg := rbcast.Config{
		Width: 16, Height: 10, Radius: r,
		Protocol: proto, T: t, Value: 1,
	}
	plan := rbcast.FaultPlan{
		Placement: rbcast.PlaceGreedyBand,
		Strategy:  rbcast.StrategySilent,
		Budget:    t,
	}
	if t >= rbcast.MinImpossibleByzantineLinf(r) {
		plan.Placement = rbcast.PlaceCheckerboardBand
	}
	if t == 0 {
		plan = rbcast.FaultPlan{}
	}
	return rbcast.Job{Config: cfg, Plan: plan}
}

// crashJob builds flooding against the densest band the crash budget admits.
func crashJob(r, t int) rbcast.Job {
	cfg := rbcast.Config{
		Width: 16, Height: 10, Radius: r,
		Protocol: rbcast.ProtocolFlood, T: t, Value: 1,
	}
	plan := rbcast.FaultPlan{
		Placement: rbcast.PlaceGreedyBand,
		Strategy:  rbcast.StrategyCrash,
		Budget:    t,
	}
	if t >= rbcast.MinImpossibleCrashLinf(r) {
		plan.Placement = rbcast.PlaceBand
	}
	if t == 0 {
		plan = rbcast.FaultPlan{}
	}
	return rbcast.Job{Config: cfg, Plan: plan}
}

// cell renders a result as ok/stall/UNSAFE.
func cell(res rbcast.Result) string {
	switch {
	case !res.Safe():
		return "UNSAFE"
	case res.AllCorrect():
		return "ok"
	default:
		return "stall"
	}
}
