package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/tcl"
)

// vmDiffScripts is the in-experiment differential table: every script runs
// under all three evaluation modes and must agree on result, error text,
// captured output, and step count. It is a condensed version of the
// vmEquivScripts table in the tcl test suite, chosen to cross every
// specialized opcode family (set/incr/expr/if/while/foreach), the generic
// dispatch path, procs and frames, arrays, lazy operators, and the error
// edges.
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
}

// vmDiffRun evaluates one script cold and warm in the given mode and
// flattens everything the differential check compares into one string.
func vmDiffRun(mode tcl.EvalMode, script string) string {
	var sb strings.Builder
	i := tcl.New()
	i.SetEvalMode(mode)
	i.Stdout = &sb
	i.Stderr = &sb
	i.StepLimit = 100000
	cold := i.EvalScript(script)
	coldSteps := i.Steps()
	warm := i.EvalScript(script)
	return fmt.Sprintf("cold=%+v/%q/%d warm=%+v/%q/%d info=%q",
		cold, sb.String(), coldSteps, warm, sb.String(), i.Steps(), i.ErrorInfo)
}

// VMBytecode is experiment E22: the register bytecode vm. The cached
// evaluator (E15) removed re-parsing but still walks the skeleton tree and
// re-runs string substitution per command; the vm lowers straight-line
// scripts and expressions to register bytecode with a constant pool,
// interned variable slots, and inline caches. The classic walker stays the
// frozen referee: the experiment also sweeps a differential script table
// across all three modes and reports the divergence count, which a guard
// requires to be zero.
func VMBytecode() (Result, error) {
	t := &table{header: []string{"hot path", "classic", "cached", "vm", "vm vs cached"}}
	m := map[string]float64{}

	// Best-of-5 rounds starting from a clean heap: each round is only a
	// few milliseconds, so a single GC pause or scheduler preemption would
	// otherwise swing the guarded ratios by 2x.
	nsPerOp := func(iters int, f func()) float64 {
		runtime.GC()
		best := math.MaxFloat64
		for r := 0; r < 5; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
				best = ns
			}
		}
		return best
	}

	newInterp := func(mode tcl.EvalMode) *tcl.Interp {
		i := tcl.New()
		i.SetEvalMode(mode)
		return i
	}
	classicI := newInterp(tcl.EvalClassic)
	cachedI := newInterp(tcl.EvalCached)
	vmI := newInterp(tcl.EvalVM)

	// Script eval: the E15 loop-and-branch body, so the vm-vs-cached ratio
	// composes with E15's cached-vs-seed ratio.
	script := `set total 0
foreach n {1 2 3 4 5 6 7 8} {
	if {$n % 2 == 0} { set total [expr {$total + $n * 3}] } else { set log "skip $n" }
}
set total`
	for _, i := range []*tcl.Interp{classicI, cachedI, vmI} {
		if res := i.EvalScript(script); res.Code != tcl.OK || res.Value != "60" {
			return Result{}, fmt.Errorf("eval warmup: %+v", res)
		}
	}
	const evalIters = 3000
	evalClassic := nsPerOp(evalIters, func() { classicI.EvalScript(script) })
	evalCached := nsPerOp(evalIters, func() { cachedI.EvalScript(script) })
	evalVM := nsPerOp(evalIters, func() { vmI.EvalScript(script) })
	t.add("Tcl eval (loop body)", fmt.Sprintf("%.0f ns", evalClassic), fmt.Sprintf("%.0f ns", evalCached),
		fmt.Sprintf("%.0f ns", evalVM), fmt.Sprintf("%.1fx", evalCached/evalVM))
	m["vm_eval_speedup_vs_cached"] = evalCached / evalVM
	m["vm_eval_speedup_vs_classic"] = evalClassic / evalVM

	// Expr eval: the E15 mixed-arithmetic expression through ExprString.
	expr := `($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)`
	for _, i := range []*tcl.Interp{classicI, cachedI, vmI} {
		i.SetVar("x", "21")
		i.SetVar("y", "3")
		if v, res := i.ExprString(expr); res.Code != tcl.OK || v != "1" {
			return Result{}, fmt.Errorf("expr warmup: %q %+v", v, res)
		}
	}
	const exprIters = 20000
	exprClassic := nsPerOp(exprIters, func() { classicI.ExprString(expr) })
	exprCached := nsPerOp(exprIters, func() { cachedI.ExprString(expr) })
	exprVM := nsPerOp(exprIters, func() { vmI.ExprString(expr) })
	t.add("expr (mixed arith)", fmt.Sprintf("%.0f ns", exprClassic), fmt.Sprintf("%.0f ns", exprCached),
		fmt.Sprintf("%.0f ns", exprVM), fmt.Sprintf("%.1fx", exprCached/exprVM))
	m["vm_expr_speedup_vs_cached"] = exprCached / exprVM
	m["vm_expr_speedup_vs_classic"] = exprClassic / exprVM

	// Differential sweep: classic is the referee; cached and vm must match
	// it byte-for-byte on result, error, output, and step count, cold and
	// warm. Any divergence fails its guard regardless of speed.
	divergences := 0
	for _, s := range vmDiffScripts {
		ref := vmDiffRun(tcl.EvalClassic, s)
		for _, mode := range []tcl.EvalMode{tcl.EvalCached, tcl.EvalVM} {
			if got := vmDiffRun(mode, s); got != ref {
				divergences++
			}
		}
	}
	t.add("differential sweep", fmt.Sprintf("%d scripts", len(vmDiffScripts)), "referee",
		fmt.Sprintf("%d divergences", divergences), "-")
	m["vm_conformance_divergences"] = float64(divergences)

	verdict := "bytecode vm clears 3x over the cached evaluator with zero divergences from the classic referee"
	if divergences > 0 {
		verdict = fmt.Sprintf("DIVERGED: %d scripts disagree with the classic referee", divergences)
	}
	return Result{
		ID:    "E22",
		Title: "register bytecode vm economics",
		PaperClaim: `"Several of these numbers could be improved" (§7.4) — E15's parse-once caches still walk the ` +
			`skeleton tree and re-substitute per command; real Tcl later went to on-the-fly bytecode for the same reason`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
		Guards:  e22Guards,
	}, nil
}

// e22Guards: the vm must stay at least 3x faster than the cached
// evaluator on the E15 eval and expr benchmarks, and no differential
// script may diverge from the classic referee.
var e22Guards = []Guard{
	atLeast("vm_eval_speedup_vs_cached", 3),
	atLeast("vm_expr_speedup_vs_cached", 3),
	atMost("vm_conformance_divergences", 0),
}
