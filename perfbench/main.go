// Command perfbench is the repository's benchmark. It drives one closed-loop
// workload through the entry points users call — core.NewEngine and
// Engine.Run (the goexpect path), or core.SpawnMux on a netx.MuxPool against
// an expectd -mux gateway — checks every reply, and prints every metric by
// name and unit, ending with one JSON line:
//
//	perfbench -bin <dir> -out <dir> -workload script -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics of an untraced window. -trace 1
// splits the time between an untraced window and a traced one that records
// spans around each call into a layer, then probes single layers, and
// reports per-layer metrics. MODEL.md says which layer metric should move
// which end-to-end metric on which workload. run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one closed-loop benchmark workload.
type workload interface {
	// workers is the number of closed-loop drivers.
	workers() int
	// setupReps is how many times a run sets the workload up to time it.
	setupReps() int
	// setUp brings the system under test to where ops can run.
	setUp() error
	// tearDown releases what setUp made and reports an unclean shutdown.
	tearDown() error
	// kill stops any process the workload started, on an error path.
	kill()
	// op runs one operation on driver w and checks its output; t is nil
	// outside traced windows.
	op(w int, seq int64, t *opTrace) error
	// sutPID is the process hosting the system under test (0 = this one).
	sutPID() int
	// counters returns cumulative layer counters, diffed around a window.
	counters() map[string]float64
	// trace arms (or disarms) the workload's own trace hooks.
	trace(on bool)
	// layers adds the per-layer figures the workload measures itself,
	// after the traced window; untraced is the run's untraced window.
	layers(m map[string]float64, untraced, traced *windowResult, seconds time.Duration) error
}

type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"tcl.self_us_per_op", "us", "lower"},
	{"tcl.commands_per_op", "count", "lower"},
	{"tcl.ns_per_command", "ns", "lower"},
	{"core.engine_new_us", "us", "lower"},
	{"core.engine_shutdown_us", "us", "lower"},
	{"core.spawn_us", "us", "lower"},
	{"core.send_us", "us", "lower"},
	{"core.expect_us_p50", "us", "lower"},
	{"core.expect_us_p99", "us", "lower"},
	{"core.close_us", "us", "lower"},
	{"core.self_us_per_op", "us", "lower"},
	{"core.overhead_us", "us", "lower"},
	{"core.shard_queue_peak", "count", "lower"},
	{"core.dropped", "count", "lower"},
	{"core.forgotten_bytes_per_op", "B", "higher"},
	{"netx.rtt_us_p50", "us", "lower"},
	{"netx.rtt_us_p99", "us", "lower"},
	{"netx.open_us_p50", "us", "lower"},
	{"netx.open_us_p99", "us", "lower"},
	{"netx.conns", "count", "lower"},
	{"netx.bytes_copied_per_op", "B", "lower"},
	{"netx.ingest_allocs_per_op", "count", "lower"},
	{"netx.segment_reuse_frac", "ratio", "higher"},
	{"mux.encode_ns_per_frame", "ns", "lower"},
	{"mux.decode_ns_per_frame", "ns", "lower"},
	{"pattern.glob_ns_per_kb", "ns/KiB", "lower"},
	{"pty.open_us", "us", "lower"},
	{"pty.hangup_miss_frac", "ratio", "lower"},
	{"expectd.cpu_us_per_op", "us", "lower"},
	{"expectd.served", "count", "higher"},
	{"expectd.refused", "count", "lower"},
	{"driver.cpu_us_per_op", "us", "lower"},
	{"bench.self_us_per_op", "us", "lower"},
	{"trace.op_mean_us", "us", "lower"},
	{"trace.overhead_us", "us", "lower"},
}

// slices is how many equal parts of a window the end-to-end figures are
// taken over; each figure is the trimmed mean of its per-slice values, so
// a short stall on a shared host moves one dropped slice, not the result,
// while slower swings of the host's speed average out.
const slices = 10

// sliceStat is what one slice of a window measured.
type sliceStat struct {
	ops int64
	dur time.Duration
	cpu time.Duration // driver plus system under test
	lat []int64       // sorted, ns
}

// windowResult is what one closed-loop window measured.
type windowResult struct {
	ops, failed int64
	lat         []int64 // per-op latency in ns, sorted
	slices      []sliceStat
	elapsed     time.Duration
	driverCPU   time.Duration
	sutCPU      time.Duration
	counters    map[string]float64 // deltas over the window
	agg         *traceAgg          // traced windows only
}

func (r *windowResult) perOp(v float64) float64 {
	if r.ops == 0 {
		return 0
	}
	return v / float64(r.ops)
}

// sliceMean is the trimmed mean over slices of f.
func (r *windowResult) sliceMean(f func(s *sliceStat) float64) float64 {
	v := make([]float64, len(r.slices))
	for i := range r.slices {
		v[i] = f(&r.slices[i])
	}
	return trimmedMean(v)
}

// mark is a slice boundary: its offset into the window and the CPU time
// of driver and system under test at that moment.
type mark struct {
	at, driver, sut time.Duration
}

func markNow(wl workload, start time.Time) (mark, error) {
	sut, err := sutCPU(wl)
	return mark{at: time.Since(start), driver: selfCPU(), sut: sut}, err
}

// runWindow runs every driver in a closed loop for d: each sends its next
// op only after the previous one completed. rate, the ops per second seen
// so far, sizes the latency records up front so that growing them does not
// stall a driver inside the window.
func runWindow(wl workload, d time.Duration, traced bool, seq *atomic.Int64, rate float64) (*windowResult, error) {
	n := wl.workers()
	lats := make([][]int64, n)
	ends := make([][]int64, n)
	perDriver := int(rate*d.Seconds()*1.5)/n + 1024
	for w := range lats {
		lats[w] = make([]int64, 0, perDriver)
		ends[w] = make([]int64, 0, perDriver)
	}
	failed := make([]int64, n)
	aggs := make([]*traceAgg, n)
	var logged atomic.Int32
	before := wl.counters()
	wl.trace(traced)
	start := time.Now()
	m0, err := markNow(wl, start)
	if err != nil {
		return nil, err
	}
	marks := []mark{m0}
	var markErr error
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := 1; i < slices; i++ {
			select {
			case <-time.After(time.Until(start.Add(d * time.Duration(i) / slices))):
			case <-stop:
				return
			}
			m, err := markNow(wl, start)
			if err != nil {
				markErr = err
				return
			}
			marks = append(marks, m)
		}
	}()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t *opTrace
			if traced {
				t = &opTrace{base: start}
				aggs[w] = newTraceAgg()
			}
			for time.Now().Before(deadline) {
				id := seq.Add(1)
				var root int32
				if t != nil {
					t.reset(id)
					root = t.begin("op")
				}
				t0 := time.Now()
				err := wl.op(w, id, t)
				end := time.Now()
				lats[w] = append(lats[w], int64(end.Sub(t0)))
				ends[w] = append(ends[w], int64(end.Sub(start)))
				if t != nil {
					t.end(root)
					aggs[w].finish(t, maxKeptSpans/n)
				}
				if err != nil {
					failed[w]++
					if logged.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", id, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if markErr != nil {
		return nil, markErr
	}
	last, err := markNow(wl, start)
	if err != nil {
		return nil, err
	}
	marks = append(marks, last)
	wl.trace(false)

	res := &windowResult{elapsed: last.at, counters: map[string]float64{},
		driverCPU: last.driver - m0.driver, sutCPU: last.sut - m0.sut}
	for k, v := range wl.counters() {
		res.counters[k] = v - before[k]
	}
	res.slices = make([]sliceStat, len(marks)-1)
	for i := range res.slices {
		res.slices[i].dur = marks[i+1].at - marks[i].at
		res.slices[i].cpu = marks[i+1].driver - marks[i].driver + marks[i+1].sut - marks[i].sut
	}
	for w := 0; w < n; w++ {
		for i, e := range ends[w] {
			k := sort.Search(len(marks), func(j int) bool { return int64(marks[j].at) > e }) - 1
			k = max(0, min(k, len(res.slices)-1))
			res.slices[k].lat = append(res.slices[k].lat, lats[w][i])
		}
		res.lat = append(res.lat, lats[w]...)
		res.failed += failed[w]
		if traced {
			if res.agg == nil {
				res.agg = newTraceAgg()
			}
			res.agg.merge(aggs[w])
		}
	}
	for i := range res.slices {
		sl := &res.slices[i]
		sl.ops = int64(len(sl.lat))
		sort.Slice(sl.lat, func(a, b int) bool { return sl.lat[a] < sl.lat[b] })
	}
	res.ops = int64(len(res.lat))
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	return res, nil
}

func sutCPU(wl workload) (time.Duration, error) {
	if pid := wl.sutPID(); pid > 0 {
		return procCPU(pid)
	}
	return 0, nil
}

func newWorkload(name string, in *inputs, bin string, admin bool) (workload, error) {
	switch name {
	case "script":
		return &scriptWL{in: in}, nil
	case "gateway-echo":
		return &gatewayWL{in: in, bin: bin, admin: admin}, nil
	case "gateway-churn":
		return &gatewayWL{in: in, bin: bin, admin: admin, churn: true}, nil
	case "rogue-pty":
		return &rogueWL{in: in, bin: bin}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have script, gateway-echo, gateway-churn, rogue-pty)", name)
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "script, gateway-echo, gateway-churn or rogue-pty")
		seed    = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "1 = add a traced window and report per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the built expectd and rogue")
		out     = flag.String("out", "", "directory for the span file of a traced run")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	in := genInputs(*seed)
	wl, err := newWorkload(*name, in, *bin, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, lines, err := run(wl, *name, in, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		wl.kill()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run sets the workload up, warms it, measures it and tears it down. The
// lines it returns name every reported figure with its unit.
func run(wl workload, name string, in *inputs, d time.Duration, traced bool, outDir string) (*result, []string, error) {
	var lines []string
	say := func(format string, a ...any) { lines = append(lines, fmt.Sprintf(format, a...)) }
	checks := true
	fail := func(format string, a ...any) {
		checks = false
		say("CHECK FAILED: "+format, a...)
	}

	goroutines := runtime.NumGoroutine()
	var setups []float64
	for i := 0; i < wl.setupReps(); i++ {
		t0 := time.Now()
		if err := wl.setUp(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < wl.setupReps()-1 {
			if err := wl.tearDown(); err != nil {
				fail("set-up %d tear-down: %v", i, err)
			}
		}
	}

	var seq atomic.Int64
	warm := d / 10
	if warm < time.Second {
		warm = time.Second
	}
	wr, err := runWindow(wl, warm, false, &seq, 0)
	if err != nil {
		return nil, nil, err
	}
	// A traced run splits its time between an untraced window, which the
	// tracing overhead and the cpu split are taken from, and a traced one.
	if traced {
		d /= 2
	}
	rate := float64(wr.ops) / wr.elapsed.Seconds()
	timed, err := runWindow(wl, d, false, &seq, rate)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(wl.sutPID())
	if err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	var tw *windowResult
	if traced {
		if tw, err = runWindow(wl, d, true, &seq, rate); err != nil {
			return nil, nil, err
		}
		traceLayers(m, timed, tw)
		if err := wl.layers(m, timed, tw, d); err != nil {
			return nil, nil, err
		}
	}
	if err := wl.tearDown(); err != nil {
		fail("tear-down: %v", err)
	}
	if !settled(goroutines) {
		fail("goroutines %d after the run, %d before", runtime.NumGoroutine(), goroutines)
	}

	attempted := timed.ops
	failed := timed.failed
	if tw != nil {
		attempted += tw.ops
		failed += tw.failed
	}
	say("workload %s seed %d: %d warm-up ops in %v (untimed), %d timed ops in %v, %d failed",
		name, in.seed, wr.ops, warm, timed.ops, timed.elapsed.Round(time.Millisecond), timed.failed)
	if wr.failed > 0 {
		fail("%d warm-up ops failed", wr.failed)
	}
	if failed > 0 {
		fail("%d of %d ops failed", failed, attempted)
	}

	res := &result{Correct: checks, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	report := func(defs []metricDef, vals map[string]float64) {
		for _, def := range defs {
			v := vals[def.name]
			say("%-28s %16.6g %s", def.name, v, def.unit)
			res.Metrics[def.name] = map[string]any{"value": v, "unit": def.unit}
		}
	}
	if !traced {
		e := map[string]float64{
			"throughput_per_s": timed.sliceMean(func(s *sliceStat) float64 { return float64(s.ops) / s.dur.Seconds() }),
			"latency_p50_us":   timed.sliceMean(func(s *sliceStat) float64 { return quantile(s.lat, 0.50) / 1e3 }),
			"cpu_us_per_op":    timed.sliceMean(func(s *sliceStat) float64 { return float64(s.cpu) / 1e3 / float64(max(s.ops, 1)) }),
			"peak_rss_mb":      rss,
			"setup_s":          median(setups),
		}
		say("%d latency samples; throughput, p50 and cpu are trimmed means over %d slices of the window; setup_s is the median of %d set-ups",
			timed.ops, len(timed.slices), len(setups))
		report(endToEnd, e)
		// The tail is printed but not gated: on a shared host it follows the
		// host's CPU steal rather than the program (see MODEL.md).
		say("%-28s %16.6g %s (printed only, %d samples)", "latency_p99_us", quantile(timed.lat, 0.99)/1e3, "us", timed.ops)
		return res, lines, nil
	}
	say("per-layer figures from %d traced ops; self times are means per op and sum to trace.op_mean_us",
		tw.ops)
	report(perLayer, m)
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, in.seed))
		head := map[string]any{"workload": name, "seed": in.seed, "ops": tw.ops, "spans": len(tw.agg.kept)}
		if err := writeSpans(path, head, tw.agg.kept); err != nil {
			return nil, nil, err
		}
		say("spans written to %s", path)
	}
	return res, lines, nil
}

// traceLayers derives the per-layer figures every workload shares from
// the traced window, and the tracing overhead against the untraced one.
// The workload's own layers run after it and may replace any of them.
func traceLayers(m map[string]float64, untraced, tw *windowResult) {
	a := tw.agg
	commands := float64(a.commands)
	m["tcl.self_us_per_op"] = a.selfUsPerOp("tcl")
	m["tcl.commands_per_op"] = tw.perOp(commands)
	if commands > 0 {
		m["tcl.ns_per_command"] = float64(a.self["tcl"]) / commands
	}
	m["core.engine_new_us"] = a.callP("core.engine_new", 0.5)
	m["core.engine_shutdown_us"] = a.callP("core.engine_shutdown", 0.5)
	m["core.spawn_us"] = a.callP("core.spawn", 0.5)
	m["core.close_us"] = a.callP("core.close", 0.5)
	m["core.send_us"] = a.callP("core.send", 0.5)
	m["core.expect_us_p50"] = a.callP("core.expect", 0.5)
	m["core.expect_us_p99"] = a.callP("core.expect", 0.99)
	m["core.self_us_per_op"] = a.selfUsPerOp("core")
	m["bench.self_us_per_op"] = a.selfUsPerOp("bench")
	var sum int64
	for _, d := range a.opDur {
		sum += d
	}
	m["trace.op_mean_us"] = tw.perOp(float64(sum) / 1e3)
	m["trace.overhead_us"] = (quantile(tw.lat, 0.5) - quantile(untraced.lat, 0.5)) / 1e3
	m["driver.cpu_us_per_op"] = untraced.perOp(float64(untraced.driverCPU) / 1e3)
	m["expectd.cpu_us_per_op"] = untraced.perOp(float64(untraced.sutCPU) / 1e3)
}

// settled waits for the goroutine count to fall back to its level before
// the run.
func settled(before int) bool {
	for i := 0; i < 300; i++ {
		if runtime.NumGoroutine() <= before {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
