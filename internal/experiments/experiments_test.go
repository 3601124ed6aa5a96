package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// checkShape runs an experiment and fails on error or a shape-mismatch
// verdict — these tests are the executable form of EXPERIMENTS.md.
func checkShape(t *testing.T, name string, run func() (Result, error)) Result {
	t.Helper()
	r, err := run()
	if err != nil {
		t.Fatalf("%s failed: %v", name, err)
	}
	if strings.Contains(r.Verdict, "SHAPE MISMATCH") {
		t.Errorf("%s: %s\n%s", name, r.Verdict, r.Table)
	}
	if r.Table == "" || r.PaperClaim == "" {
		t.Errorf("%s: incomplete result", name)
	}
	return r
}

func TestE1RogueThroughputShape(t *testing.T) {
	r := checkShape(t, "E1", func() (Result, error) { return RogueThroughput(30) })
	// The paper's machine did ~10 games/s on the pty path; anything modern
	// should clear that, and the lighter transports must be faster still.
	if r.Metrics["games_per_sec_pty"] < 10 {
		t.Errorf("pty games/sec = %.1f, below the paper's 10", r.Metrics["games_per_sec_pty"])
	}
	if r.Metrics["games_per_sec_virtual"] < r.Metrics["games_per_sec_pty"] {
		t.Error("virtual transport slower than pty — transports inverted")
	}
}

func TestE2PhaseBreakdownShape(t *testing.T) {
	r := checkShape(t, "E2", func() (Result, error) { return PhaseBreakdown(30) })
	if r.Metrics["replay_match_share_c1"] < 0.4 {
		t.Errorf("replayed match share %.2f below the paper's 0.40", r.Metrics["replay_match_share_c1"])
	}
}

func TestE3CodeSizeShape(t *testing.T) {
	r := checkShape(t, "E3", func() (Result, error) { return CodeSize("../..") })
	if r.Metrics["ratio"] <= 1 {
		t.Errorf("tcl/core ratio %.2f — the language core must dominate (§7.1)", r.Metrics["ratio"])
	}
}

func TestE4MatchMaxShape(t *testing.T) {
	checkShape(t, "E4", MatchMaxSweep)
}

func TestE5MatcherShape(t *testing.T) {
	r := checkShape(t, "E5", MatcherComparison)
	// The crossover claim: small chunks favor incremental enormously and
	// the advantage grows with stream length.
	if r.Metrics["speedup_n32000_c1"] < 10 {
		t.Errorf("speedup at n=32000,c=1 only %.1fx", r.Metrics["speedup_n32000_c1"])
	}
	if r.Metrics["speedup_n32000_c1"] <= r.Metrics["speedup_n2000_c1"] {
		t.Error("speedup did not grow with N at c=1")
	}
}

func TestE6SelectShape(t *testing.T) {
	r := checkShape(t, "E6", SelectScaling)
	if r.Metrics["extra_procs_n5"] != 12 {
		t.Errorf("V7 extra processes at N=5 = %.0f, paper says 12 (§7.2)",
			r.Metrics["extra_procs_n5"])
	}
}

func TestE7FlushShape(t *testing.T) {
	r := checkShape(t, "E7", FlushComparison)
	for _, w := range []string{"10ms", "50ms", "150ms"} {
		if r.Metrics["paced_"+w] != 5 {
			t.Errorf("paced run at %s lost commands: %.0f/5", w, r.Metrics["paced_"+w])
		}
		if r.Metrics["blind_"+w] >= r.Metrics["paced_"+w] {
			t.Errorf("blind >= paced at %s", w)
		}
	}
}

func TestE8HumanShape(t *testing.T) {
	r := checkShape(t, "E8", HumanVsExpect)
	if r.Metrics["expect_fraction"] >= 0.1 {
		t.Errorf("expect used %.2f of human time; paper says 'a fraction'",
			r.Metrics["expect_fraction"])
	}
}

func TestE9PipeShape(t *testing.T) {
	r := checkShape(t, "E9", PipePenalty)
	if r.Metrics["penalty_factor"] <= 1 {
		t.Errorf("no interposition penalty measured (%.2fx) — §5.9 predicts one",
			r.Metrics["penalty_factor"])
	}
}

func TestE12MatrixShape(t *testing.T) {
	r := checkShape(t, "E12", CapabilityMatrix)
	if r.Metrics["expect_passes"] != 4 {
		t.Errorf("expect passed %.0f/4 scenarios", r.Metrics["expect_passes"])
	}
	if r.Metrics["chat_passes"] > 1 || r.Metrics["stelnet_passes"] > 1 {
		t.Errorf("baselines passed too much: chat=%.0f stelnet=%.0f — they should only manage the happy path",
			r.Metrics["chat_passes"], r.Metrics["stelnet_passes"])
	}
}

func TestE16TraceOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("interleaved overhead passes take seconds of wall clock")
	}
	r := checkShape(t, "E16", TraceOverhead)
	if !reflect.DeepEqual(r.Guards, e16Guards) {
		t.Errorf("E16 result guards = %v, want %v", r.Guards, e16Guards)
	}
	// No assertion on the overhead percentages: they are what its guard
	// enforces under benchreport, and a loaded CI worker must not fail the unit tier
	// over scheduler noise. The shape obligations are that every
	// configuration produced a rate and the histograms actually sampled.
	for _, key := range []string{"ns_per_expect_absent", "ns_per_expect_disabled",
		"ns_per_expect_ring", "ns_per_expect_diag"} {
		if r.Metrics[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, r.Metrics[key])
		}
	}
	for _, key := range []string{"p99_ns_wakeup-to-match", "p99_ns_read-to-wakeup",
		"p99_ns_eval-dispatch"} {
		if r.Metrics[key] <= 0 {
			t.Errorf("%s = %v, want > 0 (histogram did not sample)", key, r.Metrics[key])
		}
	}
	if r.Metrics["ns_per_expect_diag"] <= r.Metrics["ns_per_expect_absent"] {
		t.Error("full diag rendering measured cheaper than no recorder at all — instrumentation inverted")
	}
}

// TestDeclaredGuards pins every benchmark guard: metric, direction, bound
// and baseline file. Loosening, dropping or re-pointing one is a visible
// diff here.
func TestDeclaredGuards(t *testing.T) {
	declared := map[string][]Guard{
		"E16": e16Guards, "E17": e17Guards, "E18": e18Guards, "E19": e19Guards,
		"E20": e20Guards, "E21": e21Guards, "E22": e22Guards, "E23": e23Guards,
	}
	want := map[string][]Guard{
		"E16": {{Metric: "trace_overhead_disabled_pct", Bound: 2}},
		"E17": {{Metric: "p99_wakeup_ns_1000_sharded", Bound: 10, Baseline: "BENCH_4.json"}},
		"E18": {{Metric: "ratio_10k_sharded_vs_64_goroutine_net", Bound: 2}},
		"E19": {
			{Metric: "bytes_copied_drop_pct_10k", AtLeast: true, Bound: 40},
			{Metric: "ingest_allocs_drop_pct_10k", AtLeast: true, Bound: 40},
			{Metric: "ingest_goroutines_10k_sharded", Bound: 256},
		},
		"E20": {
			{Metric: "journal_overhead_pct", Bound: 10},
			{Metric: "ckpt_roundtrip_p99_ns", Bound: 25, Baseline: "BENCH_7.json"},
		},
		"E21": {
			{Metric: "telemetry_scraped_overhead_pct", Bound: 3},
			{Metric: "telemetry_armed_overhead_pct", Bound: 1},
		},
		"E22": {
			{Metric: "vm_eval_speedup_vs_classic", AtLeast: true, Bound: 11.1},
			{Metric: "vm_expr_speedup_vs_classic", AtLeast: true, Bound: 14.5},
			{Metric: "vm_conformance_divergences", Bound: 0},
		},
		"E23": {
			{Metric: "ratio_100k_mux_vs_10k_net_baseline", Bound: 2},
			{Metric: "mux_dirty_drains", Bound: 0},
		},
	}
	if !reflect.DeepEqual(declared, want) {
		t.Errorf("declared guards drifted:\n got %v\nwant %v", declared, want)
	}
}

func TestGuardHolds(t *testing.T) {
	ceil, floor := atMost("m", 2), atLeast("m", 40)
	if !ceil.Holds(2) || ceil.Holds(2.5) || !floor.Holds(40) || floor.Holds(39) {
		t.Error("guard direction inverted")
	}
	if got := regressAtMost("p99", 10, "BENCH_4.json").String(); got != "p99 <= +10% vs BENCH_4.json" {
		t.Errorf("String() = %q", got)
	}
}

func TestCountGoLines(t *testing.T) {
	files, lines, err := CountGoLines(".")
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || lines == 0 {
		t.Errorf("counted %d files, %d lines in own package", files, lines)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "long-header"}}
	tb.add("x", "y")
	tb.add("wide-cell", "z")
	out := tb.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "wide-cell") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestResultFormat(t *testing.T) {
	r := Result{ID: "EX", Title: "demo", PaperClaim: "claim", Table: "t\n",
		Metrics: map[string]float64{"m": 1}, Verdict: "fine"}
	out := r.Format()
	for _, want := range []string{"EX", "demo", "claim", "m=1", "fine"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestE13TimeoutShape(t *testing.T) {
	r := checkShape(t, "E13", TimeoutSemantics)
	if r.Metrics["default_seconds"] != 10 {
		t.Errorf("default timeout = %.1fs, want 10 (§3.1)", r.Metrics["default_seconds"])
	}
	if r.Metrics["worst_rel_err"] > 0.25 {
		t.Errorf("timeout error %.0f%% too loose", r.Metrics["worst_rel_err"]*100)
	}
	if r.Metrics["preempt_seconds"] > 1 {
		t.Errorf("match took %.2fs to preempt a 30s timeout", r.Metrics["preempt_seconds"])
	}
}
