// Command bench is the rbcastd serving benchmark. It drives five
// closed-loop workloads through an in-process internal/server over
// loopback HTTP, checks every result against its pinned hash, and prints
// each metric as "<workload> <metric> <value> <unit>", ending with one
// JSON line. Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh --workload run-hit --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                    # every workload
//	bash bench/run.sh --trace 1 --seed 1          # per-layer split
//	bash bench/run.sh --ledger bench/BENCH_11.json
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json for the
// chosen workload (or all five). --trace 1 runs the traced pass over all
// five workloads and reports every per-layer metric, whatever --workload
// names: one traced run yields the whole layer table. --ledger runs two
// sets of five untraced runs of every workload plus one traced run and
// writes them, with per-set medians and quartiles, to the named file.
//
// Any wrong output (a non-2xx status, a transport error, a result whose
// hash differs from testdata/results.golden or from the scalar run, a
// missing cache hit, a diverging replay) makes the run exit 1. bench/README.md
// defines the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// benchmarkFile defines the workloads and every metric's name, unit,
// direction and bound. The program reports exactly the metrics it lists.
const benchmarkFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	wls := workloads()
	if len(def.Workloads) != len(wls) {
		return nil, fmt.Errorf("%s lists %d workloads, the benchmark runs %d", path, len(def.Workloads), len(wls))
	}
	for i, w := range def.Workloads {
		if w.Name != wls[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the benchmark runs %q", path, i, w.Name, wls[i].name)
		}
	}
	return &def, nil
}

func main() {
	workload := flag.String("workload", "all", "workload to run (run-hit, miss-wave, miss-evidence, sweep, batch or all)")
	seed := flag.Int64("seed", 1, "seed of every client's request stream")
	seconds := flag.Int("seconds", 10, "timed window per workload, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	report := flag.String("report", "", "also write the full JSON report to this file")
	ledger := flag.String("ledger", "", "run two sets of five untraced runs plus one traced run and write the ledger to this file")
	flag.Parse()

	ok, err := run(*workload, *seed, *seconds, *trace, *report, *ledger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// provenance stamps every report with where and how it was measured.
type provenance struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Platform   string  `json:"platform"`
	Revision   string  `json:"vcs_revision"`
	Modified   string  `json:"vcs_modified"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
}

func newProvenance(seed int64, window time.Duration) provenance {
	p := provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Revision:   "unknown",
		Modified:   "unknown",
		Seed:       seed,
		WindowS:    window.Seconds(),
		WarmupS:    warmup.Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

func run(name string, seed int64, seconds, trace int, reportPath, ledgerPath string) (bool, error) {
	if seconds < 1 {
		return false, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return false, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	def, err := loadDefinition(benchmarkFile)
	if err != nil {
		return false, err
	}
	selected := -1
	for i, wl := range workloads() {
		if wl.name == name {
			selected = i
		}
	}
	if selected < 0 && name != "all" {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	length := time.Duration(seconds) * time.Second
	prov := newProvenance(seed, length)
	fmt.Printf("# nproc=%d gomaxprocs=%d %s %s revision=%s modified=%s seed=%d window=%v warmup=%v\n",
		prov.Nproc, prov.GOMAXPROCS, prov.Go, prov.Platform, prov.Revision, prov.Modified, seed, length, warmup)
	fx, err := newFixture(seed, goldenPath)
	if err != nil {
		return false, err
	}
	if ledgerPath != "" {
		return writeLedger(def, fx, prov, length, ledgerPath)
	}

	pass := runUntraced
	if trace == 1 {
		pass = runTraced
	}
	out, full, err := pass(def, fx, prov, selected, length)
	if err != nil {
		return false, err
	}
	out.Correct = out.Correct && out.Failed == 0
	if reportPath != "" {
		if err := writeJSON(reportPath, full); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

// runTraced runs the traced pass over every workload and prints the
// per-layer metrics.
func runTraced(def *definition, fx *fixture, prov provenance, _ int, length time.Duration) (resultLine, any, error) {
	var out resultLine
	rep := traceAll(fx, length)
	for _, d := range def.PerLayer {
		if v, ok := rep.Layers[d.Name]; ok {
			fmt.Printf("%s %s %s\n", d.Name, formatValue(v), d.Unit)
		}
	}
	for _, wl := range workloads() {
		if a, ok := rep.Accounting[wl.name]; ok {
			fmt.Printf("# %s layers sum to %.1f us of a %.1f us client mean; named layers explain %.1f%%\n",
				wl.name, a.LayerSumUS, a.ClientMeanUS, 100*a.NamedFrac)
		}
	}
	out.Attempted, out.Failed = rep.Attempted, rep.Failed
	if err := out.fill(rep.Layers, def.PerLayer); err != nil {
		return out, nil, err
	}
	if rep.FirstError != "" {
		fmt.Fprintf(os.Stderr, "bench: first failure: %s\n", rep.FirstError)
	}
	return out, struct {
		Provenance provenance  `json:"provenance"`
		Trace      traceReport `json:"trace"`
	}{prov, rep}, nil
}

// runUntraced runs the selected workload (all five when selected < 0) and
// prints its end-to-end metrics.
func runUntraced(def *definition, fx *fixture, prov provenance, selected int, length time.Duration) (resultLine, any, error) {
	var out resultLine
	values := make(map[string]float64)
	var reps []runReport
	for i, wl := range workloads() {
		if selected >= 0 && i != selected {
			continue
		}
		rep := runE2E(fx, i, wl, length)
		reps = append(reps, rep)
		for _, d := range def.EndToEnd {
			v, ok := rep.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("%s %s %s %s\n", wl.name, d.Name, formatValue(v), d.Unit)
			key := d.Name
			if selected < 0 {
				key = wl.name + "." + d.Name
			}
			values[key] = v
		}
		fmt.Printf("# %s: p%g tail, %d window ops, %d setups, %d attempted, %d failed\n",
			wl.name, rep.TailPercentile, rep.WindowOps, rep.Setups, rep.Attempted, rep.Failed)
		if rep.FirstError != "" {
			fmt.Fprintf(os.Stderr, "bench: %s: first failure: %s\n", wl.name, rep.FirstError)
		}
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
	}
	defs := def.EndToEnd
	if selected < 0 {
		defs = nil
		for _, wl := range workloads() {
			for _, d := range def.EndToEnd {
				d.Name = wl.name + "." + d.Name
				defs = append(defs, d)
			}
		}
	}
	if err := out.fill(values, defs); err != nil {
		return out, nil, err
	}
	return out, struct {
		Provenance provenance  `json:"provenance"`
		Runs       []runReport `json:"runs"`
	}{prov, reps}, nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill sets Metrics to exactly the defined metrics. A defined metric the
// run did not produce, or one it produced that is not defined, is an
// error; a non-finite value (no successful operation) is reported as -1
// and makes the run incorrect.
func (r *resultLine) fill(values map[string]float64, defs []metricDef) error {
	r.Correct = true
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if r.Failed > 0 {
				r.Correct = false
				v = -1
			} else {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Correct = false
			v = -1
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for k := range values {
		if _, ok := r.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("measured metrics missing from %s: %v", benchmarkFile, extra)
	}
	return nil
}

// formatValue prints a metric value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runReport is one untraced workload run.
type runReport struct {
	Workload string `json:"workload"`
	// Metrics are the reported values: timings scaled to the nominal host
	// speed. Raw holds those timings as measured, and HostProbeUS the
	// probe's median sample during the run.
	Metrics        map[string]float64 `json:"metrics"`
	Raw            map[string]float64 `json:"raw"`
	HostProbeUS    float64            `json:"host_probe_us"`
	TailPercentile float64            `json:"tail_percentile"`
	WindowOps      int                `json:"window_ops"`
	Setups         int                `json:"setups"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	ErrorRate      float64            `json:"error_rate"`
	FirstError     string             `json:"first_error,omitempty"`
}

// runE2E runs one workload untraced: repeated setups, warm-up, then the
// timed window, with the host probe running throughout.
func runE2E(fx *fixture, idx int, wl workload, length time.Duration) runReport {
	runtime.GC()
	h := newHarness(fx, wl, idx)
	rep := runReport{Workload: wl.name, TailPercentile: wl.tail, Metrics: map[string]float64{}, Raw: map[string]float64{}}
	stopProbe := probeHost()
	setups, err := h.setups(0)
	rep.Setups = len(setups)
	var w window
	if err == nil {
		w = h.measure(warmup, length, false)
	}
	probe := stopProbe()
	if err == nil {
		samples := h.samples()
		lat := latencies(w.completed(samples))
		rep.WindowOps = len(lat)
		if p := tailPercentile(len(lat)); p < wl.tail {
			fmt.Fprintf(os.Stderr, "bench: %s: %d window samples support only p%g, below the fixed p%g\n",
				wl.name, len(lat), p, wl.tail)
		}
		rep.Raw["throughput_ops"] = w.throughput(samples)
		rep.Raw["latency_p50_ms"] = w.p50(samples)
		rep.Raw["latency_tail_ms"] = w.tail(samples, wl.tail)
		rep.Raw["setup_s"] = median(setups)
		rep.HostProbeUS = probe * 1e6
		speed := hostSpeed(probe)
		rep.Metrics["throughput_ops"] = rep.Raw["throughput_ops"] / speed
		rep.Metrics["latency_p50_ms"] = rep.Raw["latency_p50_ms"] * speed
		rep.Metrics["latency_tail_ms"] = rep.Raw["latency_tail_ms"] * speed
		rep.Metrics["setup_s"] = rep.Raw["setup_s"] * speed
		rep.Metrics["allocs_per_op"] = w.allocs / w.operations(samples)
		rep.Metrics["heap_live_mb"] = w.heapLive / (1 << 20)
	}
	h.close()
	attempted, failed, first := h.counts()
	rep.Attempted, rep.Failed = attempted, failed
	if attempted > 0 {
		rep.ErrorRate = float64(failed) / float64(attempted)
	}
	if first == nil {
		first = err
	}
	if first != nil {
		rep.FirstError = first.Error()
		rep.Failed = max(rep.Failed, 1)
	}
	return rep
}
