// Package experiments regenerates every quantitative claim in the paper's
// evaluation (§7, plus the measurable claims embedded in §2, §3.1, §5.4,
// §5.9 and §7.1–§7.3). Each experiment returns a Result holding the
// paper's claim, the measured table, and machine-readable metrics; the
// cmd/benchreport binary prints them and EXPERIMENTS.md records a run.
//
// Absolute numbers will differ from a 1990 Sun 3 — what must (and does)
// hold is the shape: who wins, by what factor, and where the crossovers
// fall.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Result is the outcome of one experiment. The JSON shape is what
// cmd/benchreport -json writes (BENCH_*.json artifacts).
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string `json:"id"`
	// Title names the experiment.
	Title string `json:"title"`
	// PaperClaim quotes what the paper reports.
	PaperClaim string `json:"paper_claim"`
	// Table is the regenerated table/series, formatted for a terminal.
	Table string `json:"table"`
	// Metrics holds the headline numbers keyed by name.
	Metrics map[string]float64 `json:"metrics"`
	// Verdict is a one-line comparison of shape vs the paper.
	Verdict string `json:"verdict"`
	// Guards are the bounds cmd/benchreport enforces on Metrics whenever
	// this experiment runs. They are declarations, not results, so they
	// stay out of the JSON snapshot.
	Guards []Guard `json:"-"`
}

// A Guard bounds one metric of its experiment. Plain guards bound the
// measured value; a guard with a Baseline bounds the percentage
// regression of the value against a committed results file.
type Guard struct {
	// Metric is the key in Result.Metrics.
	Metric string
	// AtLeast makes Bound a floor; otherwise it is a ceiling.
	AtLeast bool
	// Bound is the limit on the value, or on the regression percentage
	// when Baseline is set.
	Bound float64
	// Baseline, when set, names a results JSON (a committed BENCH_N.json,
	// relative to the repository root) holding the reference value of
	// Metric. The guarded figure is then (value/reference - 1) x 100.
	Baseline string
}

// atMost declares a ceiling on a metric.
func atMost(metric string, bound float64) Guard { return Guard{Metric: metric, Bound: bound} }

// atLeast declares a floor on a metric.
func atLeast(metric string, bound float64) Guard {
	return Guard{Metric: metric, AtLeast: true, Bound: bound}
}

// regressAtMost declares that a metric may regress at most pct percent
// against its value in the baseline results file.
func regressAtMost(metric string, pct float64, baseline string) Guard {
	return Guard{Metric: metric, Bound: pct, Baseline: baseline}
}

// Holds reports whether the guarded figure v is within the bound.
func (g Guard) Holds(v float64) bool {
	if g.AtLeast {
		return v >= g.Bound
	}
	return v <= g.Bound
}

// String renders the bound, e.g. "p99 <= +10% vs BENCH_4.json".
func (g Guard) String() string {
	op := "<="
	if g.AtLeast {
		op = ">="
	}
	if g.Baseline != "" {
		return fmt.Sprintf("%s %s %+g%% vs %s", g.Metric, op, g.Bound, g.Baseline)
	}
	return fmt.Sprintf("%s %s %g", g.Metric, op, g.Bound)
}

// Format renders a result as a report section.
func (r Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "paper: %s\n\n", r.PaperClaim)
	sb.WriteString(r.Table)
	if !strings.HasSuffix(r.Table, "\n") {
		sb.WriteByte('\n')
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("\nmetrics:")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%.4g", k, r.Metrics[k])
		}
		sb.WriteByte('\n')
	}
	if r.Verdict != "" {
		fmt.Fprintf(&sb, "verdict: %s\n", r.Verdict)
	}
	return sb.String()
}

// table is a small fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
