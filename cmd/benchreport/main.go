// Command benchreport regenerates the paper's evaluation: every
// quantitative claim in §7 (throughput, CPU shares, code sizes, process
// counts) plus the measurable claims of §3.1, §5.4 and §5.9, printed as
// the tables EXPERIMENTS.md records.
//
//	benchreport                 run everything
//	benchreport -exp e5         run one experiment
//	benchreport -exp e15,e16    run a comma-separated subset
//	benchreport -root DIR       repository root for the code-size experiment
//	                            and the guards' baseline files
//	benchreport -json FILE      also write the results as JSON
//	benchreport -cpuprofile F   write a CPU profile of the run to F
//	benchreport -memprofile F   write an allocation profile of the run to F
//
// Every experiment that ran is then held to the guards it declares on its
// Result (experiments.Guard): a bound on one metric, or on the metric's
// percentage regression against a committed BENCH_N.json. benchreport
// prints one line per guard and exits 1 if any is crossed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "run only these experiment ids (comma-separated, e.g. e5 or e15,e16)")
		root       = flag.String("root", ".", "repository root (for the code-size experiment and guard baselines)")
		jsonPath   = flag.String("json", "", "write the results to this file as JSON")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: memprofile: %v\n", err)
			}
		}()
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToLower(id)] = true
		}
	}

	specs := experiments.All(*root)
	var results []experiments.Result
	for _, spec := range specs {
		if len(wanted) > 0 && !wanted[strings.ToLower(spec.ID)] {
			continue
		}
		r, err := spec.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		results = append(results, r)
		fmt.Println(r.Format())
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no experiment %q; available:", *exp)
		for _, spec := range specs {
			fmt.Fprintf(os.Stderr, " %s", spec.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	if code := finish(results, *root, *jsonPath, os.Stderr); code != 0 {
		os.Exit(code)
	}
}

// finish writes the results as JSON (when jsonPath is set) and checks
// every guard they declare, returning the exit code. The baselines are
// read BEFORE the write: check.sh points -json at the same committed file
// a guard compares against, so reading it afterwards would compare the
// run with itself and pass forever.
func finish(results []experiments.Result, root, jsonPath string, log io.Writer) int {
	baselines := readBaselines(results, root)
	if jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(log, "benchreport: marshal: %v\n", err)
			return 1
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(log, "benchreport: %v\n", err)
			return 1
		}
		fmt.Fprintf(log, "benchreport: wrote %s (%d experiments)\n", jsonPath, len(results))
	}
	if !checkGuards(results, baselines, log) {
		return 1
	}
	return 0
}

// baseline is one guard baseline file as it was before this run.
// missing is set when the file could not be read (the bootstrap case),
// bad when it was read but does not parse.
type baseline struct {
	results      []experiments.Result
	missing, bad error
}

// readBaselines snapshots every baseline file the results' guards name,
// keyed by the name as declared.
func readBaselines(results []experiments.Result, root string) map[string]baseline {
	out := map[string]baseline{}
	for _, r := range results {
		for _, g := range r.Guards {
			if g.Baseline == "" {
				continue
			}
			if _, done := out[g.Baseline]; done {
				continue
			}
			var b baseline
			data, err := os.ReadFile(filepath.Join(root, g.Baseline))
			if b.missing = err; err == nil {
				b.bad = json.Unmarshal(data, &b.results)
			}
			out[g.Baseline] = b
		}
	}
	return out
}

// checkGuards evaluates every declared guard, printing one line each, and
// reports whether all held. A guard whose metric the run did not produce
// fails, as does one whose baseline file does not parse. A missing
// baseline file, or one that lacks the metric, is the bootstrap case: the
// run that first commits the snapshot passes.
func checkGuards(results []experiments.Result, baselines map[string]baseline, log io.Writer) bool {
	ok := true
	for _, r := range results {
		for _, g := range r.Guards {
			v, found := r.Metrics[g.Metric]
			if !found {
				fmt.Fprintf(log, "benchreport: %s guard FAILED: %s: metric missing from the run\n", r.ID, g)
				ok = false
				continue
			}
			what := fmt.Sprintf("%.4g", v)
			if g.Baseline != "" {
				b := baselines[g.Baseline]
				if b.bad != nil {
					fmt.Fprintf(log, "benchreport: %s guard FAILED: %s: unreadable baseline: %v\n", r.ID, g, b.bad)
					ok = false
					continue
				}
				ref, refFound := metricOf(b.results, g.Metric)
				if b.missing != nil || !refFound || ref <= 0 {
					reason := fmt.Sprintf("lacks %s", g.Metric)
					if b.missing != nil {
						reason = b.missing.Error()
					}
					fmt.Fprintf(log, "benchreport: %s guard ok: %s: no baseline (%s) — bootstrap pass\n", r.ID, g, reason)
					continue
				}
				pct := (v/ref - 1) * 100
				what = fmt.Sprintf("%.4g vs baseline %.4g (%+.1f%%)", v, ref, pct)
				v = pct
			}
			verdict := "ok"
			if !g.Holds(v) {
				verdict, ok = "FAILED", false
			}
			fmt.Fprintf(log, "benchreport: %s guard %s: %s: %s\n", r.ID, verdict, g, what)
		}
	}
	return ok
}

// metricOf finds a metric in a results file.
func metricOf(results []experiments.Result, metric string) (float64, bool) {
	for _, r := range results {
		if v, ok := r.Metrics[metric]; ok {
			return v, true
		}
	}
	return 0, false
}
