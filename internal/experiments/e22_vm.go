package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tcl"
)

// vmDiffScripts is the in-experiment differential table: every script runs
// under both evaluators and must agree on result, error text,
// captured output, and step count. It is a condensed version of the
// vmEquivScripts table in the tcl test suite, chosen to cross every
// specialized opcode family (set/incr/expr/if/while/foreach), the generic
// dispatch path, procs and frames, arrays (computed indices included),
// lazy operators, quoted operands, and the error edges (word-level parse
// errors included).
var vmDiffScripts = []string{
	`set a 1; set b $a; set b`,
	`set a 0x10; set b [set a]; set b`,
	`set total 0; foreach n {1 2 3 4 5 6 7 8} { if {$n % 2 == 0} { set total [expr {$total + $n * 3}] } else { set log "skip $n" } }; set total`,
	`set x 5; while {$x > 0} { incr x -1 }; set x`,
	`set v 7; incr v; incr v 3; incr v -11; set v`,
	`if {0} {set r a} elseif {1} {set r b} else {set r c}; set r`,
	`expr {1 ? "a" : [set q]}`,
	`expr {0 && [undefined]}`,
	`expr {(5 / -2) + (-5 % 3)}`,
	`expr {1 << 4 | 3 & 6 ^ 2}`,
	`expr {10 % 0}`,
	`set x 21; set y 3; expr {($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)}`,
	`set a(x) 1; set a(y) 2; expr {$a(x) + $a(y)}`,
	`proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]} }; fib 9`,
	`proc g {} { upvar 1 v loc; set loc 42 }; set v 0; g; set v`,
	`foreach x {1 2 3} { puts "item $x" }`,
	`catch {error boom} msg; set msg`,
	`unknowncmd foo`,
	`puts "a $missing b"`,
	`rename set myset; myset z 9; myset z`,
	`set n total; set $n 3; incr $n 4; set total`,
	`set i k; set a(k) 3; set x $a($i)`,
	`set n 0; catch {set x $a([incr n]} m; set n`,
	`set y 1; set z [incr y] "a[incr y]b`,
	`set t 0; expr {0 && "[incr t]"}; set t`,
}

// vmDiffRun evaluates one script cold and warm on the vm (onVM) or the
// classic walker and flattens everything the differential check compares
// into one string.
func vmDiffRun(onVM bool, script string) string {
	var sb strings.Builder
	i := newEvaluator(onVM)
	i.Stdout = &sb
	i.Stderr = &sb
	i.StepLimit = 100000
	cold := i.EvalScript(script)
	coldSteps := i.Steps()
	warm := i.EvalScript(script)
	return fmt.Sprintf("cold=%+v/%q/%d warm=%+v/%q/%d info=%q",
		cold, sb.String(), coldSteps, warm, sb.String(), i.Steps(), i.ErrorInfo)
}

// newEvaluator builds an interpreter on the bytecode vm (the default) or
// on the classic walker, which runs once the compile caches are off.
func newEvaluator(onVM bool) *tcl.Interp {
	i := tcl.New()
	if !onVM {
		i.SetEvalCacheSize(0)
	}
	return i
}

// vmRounds is how many interleaved rounds each timed pair runs; every
// reported ratio is the median of its rounds, with the extremes beside
// it, because single rounds on a shared host swing by 2x.
const vmRounds = 7

// pairRatios times aIters calls of a and bIters calls of b, interleaved
// over vmRounds rounds from a clean heap, and returns the median ns/op of
// each side plus the per-round ratios a/b, sorted. Sizing the iteration
// counts so both sides run for similar wall time keeps a scheduler
// preemption from landing on the short side only.
func pairRatios(aIters, bIters int, a, b func()) (aNS, bNS float64, ratios []float64) {
	nsPerOp := func(iters int, f func()) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	var as, bs []float64
	for r := 0; r < vmRounds; r++ {
		runtime.GC()
		an, bn := nsPerOp(aIters, a), nsPerOp(bIters, b)
		as, bs = append(as, an), append(bs, bn)
		ratios = append(ratios, an/bn)
	}
	sort.Float64s(as)
	sort.Float64s(bs)
	sort.Float64s(ratios)
	return as[vmRounds/2], bs[vmRounds/2], ratios
}

// ratioCell renders sorted per-round ratios as "median (min-max)".
func ratioCell(ratios []float64) string {
	return fmt.Sprintf("%.1fx (%.1f-%.1f)", ratios[len(ratios)/2], ratios[0], ratios[len(ratios)-1])
}

// VMBytecode is experiment E22: the register bytecode vm, the evaluator
// every interpreter runs while its compile caches are on. It lowers
// scripts and expressions to register bytecode with a constant pool,
// interned variable slots, and inline caches. The classic walker stays
// the frozen referee: the experiment prices the vm against it, sweeps a
// differential script table across both and reports the divergence
// count, which a guard requires to be zero, and prices the same loop
// hosted in an engine with and without the dispatch hook armed.
func VMBytecode() (Result, error) {
	t := &table{header: []string{"hot path", "classic", "vm", "vm vs classic (median, min-max)"}}
	m := map[string]float64{}

	classicI, vmI := newEvaluator(false), newEvaluator(true)

	// Script eval: the E15 loop-and-branch body.
	script := `set total 0
foreach n {1 2 3 4 5 6 7 8} {
	if {$n % 2 == 0} { set total [expr {$total + $n * 3}] } else { set log "skip $n" }
}
set total`
	for _, i := range []*tcl.Interp{classicI, vmI} {
		if res := i.EvalScript(script); res.Code != tcl.OK || res.Value != "60" {
			return Result{}, fmt.Errorf("eval warmup: %+v", res)
		}
	}
	const evalIters = 3000
	evalClassic, evalVM, evalRatios := pairRatios(evalIters, 10*evalIters,
		func() { classicI.EvalScript(script) }, func() { vmI.EvalScript(script) })
	t.add("Tcl eval (loop body)", fmt.Sprintf("%.0f ns", evalClassic), fmt.Sprintf("%.0f ns", evalVM), ratioCell(evalRatios))
	m["vm_eval_speedup_vs_classic"] = evalRatios[vmRounds/2]

	// Expr eval: the E15 mixed-arithmetic expression through ExprString.
	expr := `($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)`
	for _, i := range []*tcl.Interp{classicI, vmI} {
		i.SetVar("x", "21")
		i.SetVar("y", "3")
		if v, res := i.ExprString(expr); res.Code != tcl.OK || v != "1" {
			return Result{}, fmt.Errorf("expr warmup: %q %+v", v, res)
		}
	}
	const exprIters = 20000
	exprClassic, exprVM, exprRatios := pairRatios(exprIters, 20*exprIters,
		func() { classicI.ExprString(expr) }, func() { vmI.ExprString(expr) })
	t.add("expr (mixed arith)", fmt.Sprintf("%.0f ns", exprClassic), fmt.Sprintf("%.0f ns", exprVM), ratioCell(exprRatios))
	m["vm_expr_speedup_vs_classic"] = exprRatios[vmRounds/2]

	// Hosted leg: the same loop script run by an engine, as goexpect runs
	// it. A default engine leaves the dispatch hook unarmed; a profiled one
	// arms it, which times every command and turns the vm's specialized
	// sites back into generic dispatch. Reported, not guarded.
	unarmed := core.NewEngine(core.EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard})
	defer unarmed.Shutdown()
	armed := core.NewEngine(core.EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard,
		Prof: metrics.NewProfiler()})
	defer armed.Shutdown()
	for _, e := range []*core.Engine{unarmed, armed} {
		if out, err := e.Run(script); err != nil || out != "60" {
			return Result{}, fmt.Errorf("hosted warmup: %q %v", out, err)
		}
	}
	hostArmed, hostUnarmed, hostRatios := pairRatios(2*evalIters, 10*evalIters,
		func() { armed.Run(script) }, func() { unarmed.Run(script) })
	t.add("hosted loop, hook armed / unarmed", fmt.Sprintf("%.0f ns armed", hostArmed),
		fmt.Sprintf("%.0f ns unarmed", hostUnarmed), ratioCell(hostRatios))
	m["hosted_eval_ns_unarmed"] = hostUnarmed
	m["hosted_eval_ns_armed"] = hostArmed
	m["hosted_hook_cost_x"] = hostRatios[vmRounds/2]

	// Differential sweep: classic is the referee; the vm must match it
	// byte-for-byte on result, error, output, and step count, cold and
	// warm. Any divergence fails its guard regardless of speed.
	divergences := 0
	for _, s := range vmDiffScripts {
		if vmDiffRun(true, s) != vmDiffRun(false, s) {
			divergences++
		}
	}
	t.add("differential sweep", fmt.Sprintf("%d scripts", len(vmDiffScripts)),
		fmt.Sprintf("%d divergences", divergences), "-")
	m["vm_conformance_divergences"] = float64(divergences)

	verdict := "bytecode vm clears 11x (eval) and 14x (expr) over the classic referee with zero divergences"
	if divergences > 0 {
		verdict = fmt.Sprintf("DIVERGED: %d scripts disagree with the classic referee", divergences)
	}
	return Result{
		ID:    "E22",
		Title: "register bytecode vm economics",
		PaperClaim: `"Several of these numbers could be improved" (§7.4) — the seed re-parsed every script on every ` +
			`evaluation; real Tcl later went to on-the-fly bytecode for the same reason`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
		Guards:  e22Guards,
	}, nil
}

// e22Guards: the vm must keep the speedup over the classic referee that
// the recorded run with the tree-walking evaluator in between implied —
// 3x over that evaluator, which was 3.7x (eval) and 4.8x (expr) over
// classic in BENCH_9.json — and no differential script may diverge from
// the classic referee.
var e22Guards = []Guard{
	atLeast("vm_eval_speedup_vs_classic", 11.1),
	atLeast("vm_expr_speedup_vs_classic", 14.5),
	atMost("vm_conformance_divergences", 0),
}
