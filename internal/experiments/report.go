package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pool"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E01").
	ID string
	// Title names the reproduced artifact.
	Title string
	// PaperClaim states what the paper says, in one line.
	PaperClaim string
	// Header labels the row columns.
	Header []string
	// Rows carry the measured series.
	Rows [][]string
	// Pass reports whether every measured value matched the claim.
	Pass bool
	// Notes carries caveats (substitutions, informal-claim status).
	Notes []string
}

// Format renders the report as an aligned text table.
func (r Report) Format() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "   paper: %s\n", r.PaperClaim)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			b.WriteString("   ")
			for i, c := range cells {
				if i < len(widths) {
					fmt.Fprintf(&b, "%-*s  ", widths[i], c)
				} else {
					b.WriteString(c + "  ")
				}
			}
			b.WriteString("\n")
		}
		writeRow(r.Header)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Runner produces a report. Runners must be deterministic.
type Runner func() (Report, error)

// registry maps experiment ids to runners; populated by init in each file.
var registry = map[string]Runner{}

// register adds a runner; duplicate ids panic at init time.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns all registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string) (Report, error) {
	r, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r()
}

// RunMany executes the given experiments across a bounded worker pool
// (workers ≤ 0 means GOMAXPROCS) and returns their reports in input order —
// identical to running them sequentially, since every runner is
// deterministic and self-contained. On failure the reported error is the
// first failing experiment in input order, regardless of which finished
// first.
func RunMany(ids []string, workers int) ([]Report, error) {
	reports := make([]Report, len(ids))
	errs := make([]error, len(ids))
	pool.Run(workers, len(ids), func(i int) {
		reports[i], errs[i] = Run(strings.TrimSpace(ids[i]))
	})
	for i, err := range errs {
		if err != nil {
			return reports[:i], fmt.Errorf("experiments: %s: %w", strings.TrimSpace(ids[i]), err)
		}
	}
	return reports, nil
}

// itoa is shorthand for formatting ints in rows.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// ftoa is shorthand for formatting floats in rows.
func ftoa(v float64) string { return fmt.Sprintf("%.3f", v) }
