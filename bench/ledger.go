package main

import (
	"fmt"
	"math"
	"time"
)

const (
	// ledgerSets sets of ledgerRuns untraced runs make a ledger; the sets
	// must agree within each metric's bound.
	ledgerSets = 2
	ledgerRuns = 5
)

// setSummary is one set's median and quartiles of a metric.
type setSummary struct {
	Median float64    `json:"median"`
	Q      [3]float64 `json:"quartiles"`
	Values []float64  `json:"values"`
}

// metricSummary compares a metric's sets.
type metricSummary struct {
	Unit  string       `json:"unit"`
	Bound float64      `json:"bound"`
	Sets  []setSummary `json:"sets"`
	// Drift is |second median − first median| ÷ first median.
	Drift  float64 `json:"drift"`
	Repeat bool    `json:"repeats_within_bound"`
}

// ledger is the committed baseline a later change is compared against.
type ledger struct {
	Schema     string                              `json:"schema"`
	Provenance provenance                          `json:"provenance"`
	Summary    map[string]map[string]metricSummary `json:"summary"`
	Runs       [][]runReport                       `json:"runs"`
	Trace      traceReport                         `json:"trace"`
}

// writeLedger runs ledgerSets × ledgerRuns untraced runs of every
// workload and one traced run, and writes the ledger to path.
func writeLedger(def *definition, fx *fixture, prov provenance, length time.Duration, path string) (bool, error) {
	lg := ledger{Schema: "rbcast-serve-ledger/1", Provenance: prov, Summary: map[string]map[string]metricSummary{}}
	correct := true
	values := map[string]map[string][][]float64{} // workload → metric → set → runs
	for set := 0; set < ledgerSets; set++ {
		for r := 0; r < ledgerRuns; r++ {
			var runs []runReport
			for i, wl := range workloads() {
				rep := runE2E(fx, i, wl, length)
				fmt.Printf("# set %d run %d %s: %v failed=%d\n", set+1, r+1, wl.name, rep.Metrics, rep.Failed)
				correct = correct && rep.Failed == 0
				runs = append(runs, rep)
				if values[wl.name] == nil {
					values[wl.name] = map[string][][]float64{}
				}
				for _, d := range def.EndToEnd {
					m := values[wl.name]
					if len(m[d.Name]) < ledgerSets {
						m[d.Name] = make([][]float64, ledgerSets)
					}
					m[d.Name][set] = append(m[d.Name][set], rep.Metrics[d.Name])
				}
			}
			lg.Runs = append(lg.Runs, runs)
		}
	}
	for _, wl := range workloads() {
		lg.Summary[wl.name] = map[string]metricSummary{}
		for _, d := range def.EndToEnd {
			ms := metricSummary{Unit: d.Unit, Bound: d.Bound}
			for _, v := range values[wl.name][d.Name] {
				ms.Sets = append(ms.Sets, setSummary{Median: median(v), Q: quartiles(v), Values: v})
			}
			first, last := ms.Sets[0].Median, ms.Sets[len(ms.Sets)-1].Median
			ms.Drift = math.Abs(last-first) / first
			ms.Repeat = ms.Drift <= d.Bound
			lg.Summary[wl.name][d.Name] = ms
			fmt.Printf("%s %s set medians %s / %s %s (drift %.2f%%, bound %g%%)\n", wl.name, d.Name,
				formatValue(first), formatValue(last), d.Unit, 100*ms.Drift, 100*d.Bound)
		}
	}
	lg.Trace = traceAll(fx, length)
	correct = correct && lg.Trace.Failed == 0
	if err := writeJSON(path, lg); err != nil {
		return false, err
	}
	return correct, nil
}
