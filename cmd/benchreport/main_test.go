package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func result(id string, metrics map[string]float64, guards ...experiments.Guard) experiments.Result {
	return experiments.Result{ID: id, Metrics: metrics, Guards: guards}
}

func writeResults(t *testing.T, path string, rs ...experiments.Result) {
	t.Helper()
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGuardsBounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		v     float64
		guard experiments.Guard
		want  bool
	}{
		{"ceiling held", 2, experiments.Guard{Metric: "m", Bound: 2}, true},
		{"ceiling crossed", 2.01, experiments.Guard{Metric: "m", Bound: 2}, false},
		{"zero ceiling crossed", 1, experiments.Guard{Metric: "m", Bound: 0}, false},
		{"floor held", 40, experiments.Guard{Metric: "m", AtLeast: true, Bound: 40}, true},
		{"floor crossed", 39.9, experiments.Guard{Metric: "m", AtLeast: true, Bound: 40}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log strings.Builder
			rs := []experiments.Result{result("E0", map[string]float64{"m": tc.v}, tc.guard)}
			if got := checkGuards(rs, nil, &log); got != tc.want {
				t.Errorf("checkGuards = %v, want %v\n%s", got, tc.want, log.String())
			}
		})
	}
}

// A declared guard whose metric the run never produced is a failure, not
// a silent pass.
func TestCheckGuardsMissingMetricFails(t *testing.T) {
	var log strings.Builder
	rs := []experiments.Result{result("E0", map[string]float64{}, experiments.Guard{Metric: "m", Bound: 1})}
	if checkGuards(rs, nil, &log) {
		t.Fatalf("missing metric passed:\n%s", log.String())
	}
}

func TestCheckGuardsBaseline(t *testing.T) {
	dir := t.TempDir()
	writeResults(t, filepath.Join(dir, "BENCH_X.json"), result("E0", map[string]float64{"p99": 100}))
	writeResults(t, filepath.Join(dir, "BENCH_EMPTY.json"), result("E0", map[string]float64{"other": 1}))
	if err := os.WriteFile(filepath.Join(dir, "BENCH_BAD.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file string
		v          float64
		want       bool
	}{
		{"within budget", "BENCH_X.json", 109, true},
		{"regressed past budget", "BENCH_X.json", 111, false},
		{"missing file bootstraps", "BENCH_NONE.json", 1e9, true},
		{"missing metric bootstraps", "BENCH_EMPTY.json", 1e9, true},
		{"unparsable baseline fails", "BENCH_BAD.json", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log strings.Builder
			g := experiments.Guard{Metric: "p99", Bound: 10, Baseline: tc.file}
			rs := []experiments.Result{result("E0", map[string]float64{"p99": tc.v}, g)}
			if got := checkGuards(rs, readBaselines(rs, dir), &log); got != tc.want {
				t.Errorf("checkGuards = %v, want %v\n%s", got, tc.want, log.String())
			}
			if strings.Contains(tc.name, "bootstraps") && !strings.Contains(log.String(), "bootstrap pass") {
				t.Errorf("bootstrap not reported:\n%s", log.String())
			}
		})
	}
}

// finish must snapshot a guard's baseline before -json overwrites the same
// file; otherwise the run is compared with itself and always passes.
func TestFinishReadsBaselineBeforeJSONRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_X.json")
	writeResults(t, path, result("E0", map[string]float64{"p99": 100}))

	g := experiments.Guard{Metric: "p99", Bound: 10, Baseline: "BENCH_X.json"}
	rs := []experiments.Result{result("E0", map[string]float64{"p99": 200}, g)}
	var log strings.Builder
	if code := finish(rs, dir, path, &log); code != 1 {
		t.Fatalf("finish = %d, want 1 (a +100%% regression against the pre-run file)\n%s", code, log.String())
	}
	var written []experiments.Result
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &written); err != nil {
		t.Fatal(err)
	}
	if v, _ := metricOf(written, "p99"); v != 200 {
		t.Fatalf("-json did not rewrite the baseline file: p99 = %v", v)
	}
	// The rewritten file is now the baseline of the next run.
	log.Reset()
	if code := finish(rs, dir, path, &log); code != 0 {
		t.Fatalf("second finish = %d, want 0\n%s", code, log.String())
	}
}
