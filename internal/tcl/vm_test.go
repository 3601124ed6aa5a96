package tcl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/tcl/vm"
)

// vmEquivScripts is the cross-evaluator conformance table: every script
// runs under classic and vm evaluation and must produce identical
// results, error text, ErrorInfo traces, output, and step counts. The
// list deliberately covers every specialized opcode (set/incr/expr/if/
// while/foreach), the generic dispatch path, substitution errors, and
// the control-flow edges (break/continue/return/error).
var vmEquivScripts = []string{
	// Specialized builtins and the native-value channel.
	`set a 1`,
	`set a 1; set b $a; set b`,
	`set a 0x10; set b [set a]; set b`,
	`set total 0; foreach n {1 2 3 4 5 6 7 8} { if {$n % 2 == 0} { set total [expr {$total + $n * 3}] } else { set log "skip $n" } }; set total`,
	`set x 5; while {$x > 0} { incr x -1 }; set x`,
	`set v 7; incr v; incr v 3; incr v -11; set v`,
	`set v notanum; incr v`,
	`incr novar`,
	`if {1 < 2} then {set r yes} else {set r no}`,
	`if {0} {set r a} elseif {1} {set r b} else {set r c}; set r`,
	`while {1} { break }`,
	`set s 0; foreach {a b} {1 2 3 4} { incr s $a; incr s $b }; set s`,
	`foreach v {a b} { continue; set never 1 }`,
	// Expressions: lazy operators, ternaries, floats, strings, functions.
	`expr {3.5 * 2}`,
	`expr {1 ? "a" : [set q]}`,
	`expr {0 && [undefined]}`,
	`expr {1 || [undefined]}`,
	`expr {"abc" < "abd"}`,
	`expr {abs(-4) + round(2.6)}`,
	`expr {(5 / -2) + (-5 % 3)}`,
	`expr {1 << 4 | 3 & 6 ^ 2}`,
	`expr {1 << 99}`,
	`expr {10 % 0}`,
	`expr {"x" + 1}`,
	`set x 21; set y 3; expr {($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)}`,
	// Arrays, lists, procs, frames.
	`set a(x) 1; set a(y) 2; expr {$a(x) + $a(y)}`,
	`proc f {a b} { expr {$a + $b} }; f 3 4`,
	`proc g {} { upvar 1 v loc; set loc 42 }; set v 0; g; set v`,
	`proc h {} { global gv; incr gv }; set gv 9; h; set gv`,
	`proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]} }; fib 9`,
	`set l {}; foreach v {a b c} { lappend l $v-$v }; set l`,
	`set s hello; string length $s`,
	// Errors, traces, and the substitution edges.
	`catch {expr {1/0}} msg; set msg`,
	`catch {error boom} msg; set msg`,
	`unknowncmd foo`,
	`set`,
	`set x [`,
	`expr {[}`,
	`puts "a $missing b"`,
	// Command-table churn: inline caches must revalidate.
	`rename set myset; myset z 9; myset z`,
	`proc set2 {n v} { uplevel 1 [list set $n $v] }; set2 q 5; set q`,
	`proc w {} {return inner}; w; rename w ""; w`,
	// More distinct names and constants than one block interns by scan.
	`set v0 k0; set v1 k1; set v2 k2; set v3 k3; set v4 k4; set v5 k5; set v6 k6; set v7 k7; set v8 k8; set v9 k9; set v10 k10; set v11 k11; set v12 k12; set v13 k13; set v14 k14; set v15 k15; set v16 k16; set v17 k17; set v18 k18; set v19 k19; set v3 k3; set v17`,
	// Interpolated (non-literal) words through the specialized sites.
	`set n total; set $n 3; incr $n 4; set total`,
	`set i 2; set "v$i" x; set v2`,
	// Computed indices, element spellings, and word-level parse errors,
	// at top level and inside the specialized sites.
	`set i k; set a(k) 3; set x $a($i)`,
	`set i k; set a(k) 3; puts "<$a($i)>"`,
	`set i k; set a(k) 3; if {1} { set x $a($i) }; set x`,
	`set a(k) 3; foreach i {k} { set x $a($i)$i }; set x`,
	`set i nosuch; set a(k) 3; catch {set x $a($i)} msg; set msg`,
	`set n 0; set a(k) 1; while {$n < 2} { incr n; catch {puts $a($n)} msg }; set msg`,
	`set a(k) 4; set x ${a(k)}`,
	`catch {set x ${a(q)}} m; set m`,
	`set a(k) 4; foreach v {1} { set x ${a(k)}$v }; set x`,
	`set n 0; catch {set x $a([incr n]} m; set n`,
	`set n 0; if {1} { catch {set x $a([incr n]} m }; list $m $n`,
	`set y 1; set z [incr y] "a[incr y]b`,
	`set y 1; catch {set z [incr y] "a[incr y]b} m; list $m $y`,
	`set y 0; foreach v {1 2} { catch {puts [incr y] "$v[incr y]} m }; list $m $y`,
	`set y 0; while {$y < 1} { catch {set q "a[incr y]"b} m }; list $m $y`,
	// The same through the expression machine.
	`set t 0; expr {0 && "[incr t]"}; set t`,
	`set t 0; foreach v {1 2} { set r [expr {$v > 1 && "[incr t]"}] }; list $r $t`,
	`set t 0; if {1 || "[incr t]"} { set r yes }; list $r $t`,
	`catch {expr {0 && "$nosuch"}} m; set m`,
	`set i k; set a(k) 3; expr {$a($i) * 2}`,
	`set i k; set a(k) 3; if {$a($i) > 2} { set r big }`,
	`set a(k) 5; expr {${a(k)} + 1}`,
	`expr {0 && $a($nosuch)}`,
	`set n 0; while {0 && $a([incr n])} {}; set n`,
	`catch {expr {$a($nosuch)}} m; set m`,
	`expr {1 ? 2}`,
	`catch {if {1 ? 2} { set r 1 }} m; set m`,
	`expr {abs(1}`,
	`expr {1 2}`,
	`set x 1; foreach v {1} { catch {set r [expr {$x + ("v$v"}]} m }; set m`,
	// A bare '$' before '(' (and an unclosed ${name) is skipped lexically
	// when untaken and unwinds to an error when taken.
	`expr 00&&$(0`,
	`expr {0 && $(x)}`,
	`expr {1 ? 2 : $(y)}`,
	`catch {expr {1 && $(x)}} m; set m`,
	`catch {expr {2 * ($(x) + 1)}} m; set m`,
	`set n 0; expr {0 && $([incr n]) || [incr n]}; set n`,
	`set e "0 && \${x"; expr $e`,
	`set e "1 && \${x"; catch {expr $e} m; set m`,
}

// newEvaluator builds an interpreter on the bytecode vm (the default) or,
// with vm false, on the classic walker: compile caches off, the referee.
func newEvaluator(onVM bool) *Interp {
	if onVM {
		return New()
	}
	return newUncached()
}

func evaluatorName(onVM bool) string {
	if onVM {
		return "vm"
	}
	return "classic"
}

// runEquiv evaluates script on a fresh vm or classic interpreter and
// reports everything the differential check compares. When warm is set
// the script runs twice (state reset in between where possible is not
// attempted — warm runs compare warm-vs-warm across evaluators instead).
func runEquiv(onVM bool, script string, warm bool) (res Result, info string, steps int64, out string) {
	var sb strings.Builder
	i := newEvaluator(onVM)
	i.Stdout = &sb
	i.Stderr = &sb
	i.StepLimit = 100000
	if warm {
		i.EvalScript(script)
		i.ErrorInfo = ""
	}
	res = i.EvalScript(script)
	return res, i.ErrorInfo, i.Steps(), sb.String()
}

func TestVMEquivalence(t *testing.T) {
	for _, script := range vmEquivScripts {
		for _, warm := range []bool{false, true} {
			rc, infoC, stepsC, outC := runEquiv(false, script, warm)
			rm, infoM, stepsM, outM := runEquiv(true, script, warm)
			label := fmt.Sprintf("warm=%v script=%q", warm, script)
			if rc != rm {
				t.Errorf("%s: result classic=%+v vm=%+v", label, rc, rm)
			}
			if infoC != infoM {
				t.Errorf("%s: errorinfo classic=%q vm=%q", label, infoC, infoM)
			}
			if stepsC != stepsM {
				t.Errorf("%s: steps classic=%d vm=%d", label, stepsC, stepsM)
			}
			if outC != outM {
				t.Errorf("%s: output classic=%q vm=%q", label, outC, outM)
			}
		}
	}
}

// TestVMStepLimitParity pins the satellite requirement that step counts
// are variant-neutral: a tight StepLimit must trip at the same step with
// the same error text on both evaluators.
func TestVMStepLimitParity(t *testing.T) {
	const script = `set n 0; while {1} { incr n }`
	var ref Result
	var refSteps int64
	for k, onVM := range []bool{false, true} {
		mode := evaluatorName(onVM)
		i := newEvaluator(onVM)
		i.StepLimit = 500
		res := i.EvalScript(script)
		if res.Code != Error || !strings.Contains(res.Value, "step limit exceeded") {
			t.Fatalf("%s: expected step-limit error, got %+v", mode, res)
		}
		if k == 0 {
			ref, refSteps = res, i.Steps()
			continue
		}
		if res != ref {
			t.Errorf("%s: result %+v, classic %+v", mode, res, ref)
		}
		if i.Steps() != refSteps {
			t.Errorf("%s: steps %d, classic %d", mode, i.Steps(), refSteps)
		}
	}
}

// TestVMHookParity checks that Trace and DispatchHook observe the same
// command sequence under vm evaluation: arming a hook drops the
// specialized sites back to the generic dispatch path, so the hook's view
// is identical to the classic evaluator's.
func TestVMHookParity(t *testing.T) {
	const script = `set a 1; incr a; if {$a > 1} { set b [expr {$a * 2}] }; foreach x {1 2} { set c $x }`
	seq := func(onVM bool) (trace, hook []string) {
		i := newEvaluator(onVM)
		i.Trace = func(depth int, words []string) {
			trace = append(trace, fmt.Sprintf("%d:%s", depth, strings.Join(words, " ")))
		}
		i.DispatchHook = func(name string, depth int, d time.Duration) {
			hook = append(hook, fmt.Sprintf("%d:%s", depth, name))
		}
		if res := i.EvalScript(script); res.Code != OK {
			t.Fatalf("%s: %+v", evaluatorName(onVM), res)
		}
		return trace, hook
	}
	traceC, hookC := seq(false)
	traceM, hookM := seq(true)
	if strings.Join(traceC, "\n") != strings.Join(traceM, "\n") {
		t.Errorf("vm trace diverged:\nclassic:\n%s\nvm:\n%s", strings.Join(traceC, "\n"), strings.Join(traceM, "\n"))
	}
	if strings.Join(hookC, "\n") != strings.Join(hookM, "\n") {
		t.Errorf("vm dispatch hook diverged:\nclassic:\n%s\nvm:\n%s", strings.Join(hookC, "\n"), strings.Join(hookM, "\n"))
	}
}

// TestVMHookMidStream arms the hooks after the vm has already compiled
// and specialized the script, which must flip the specialized sites back
// to the generic (observable) path without recompilation.
func TestVMHookMidStream(t *testing.T) {
	const script = `set a 1; incr a 2; set a`
	i := New()
	if res := i.EvalScript(script); res.Code != OK || res.Value != "3" {
		t.Fatalf("cold run: %+v", res)
	}
	var hook []string
	i.DispatchHook = func(name string, depth int, d time.Duration) { hook = append(hook, name) }
	if res := i.EvalScript(script); res.Code != OK || res.Value != "3" {
		t.Fatalf("hooked run: %+v", res)
	}
	want := "set,incr,set"
	if got := strings.Join(hook, ","); got != want {
		t.Errorf("dispatch hook saw %q, want %q", got, want)
	}
}

// TestEvalModeRoundTrip switches one interpreter between its two
// evaluators: the vm by default, the classic walker once the compile
// caches are off, the vm again once they are back.
// TestHookClearedMidDispatch lets a command clear the dispatch hook that
// is timing it, as exp_internal 0 does: the dispatch in flight still
// reports to the hook it started with, and later ones go unobserved.
func TestHookClearedMidDispatch(t *testing.T) {
	for _, onVM := range []bool{false, true} {
		i := newEvaluator(onVM)
		var seen []string
		i.DispatchHook = func(name string, depth int, d time.Duration) { seen = append(seen, name) }
		i.Register("unhook", func(i *Interp, args []string) Result {
			i.DispatchHook = nil
			return Ok("")
		})
		if res := i.EvalScript(`set a 1; unhook; set b 2`); res.Code != OK {
			t.Fatalf("%s: %+v", evaluatorName(onVM), res)
		}
		if got := strings.Join(seen, ","); got != "set,unhook" {
			t.Errorf("%s: hook saw %q, want %q", evaluatorName(onVM), got, "set,unhook")
		}
	}
}

func TestEvalModeRoundTrip(t *testing.T) {
	i := New()
	if i.vmCache == nil || i.vmExprCache == nil {
		t.Fatal("a new interpreter does not run on the vm")
	}
	if res := i.EvalScript(`set a 5; expr {$a * 2}`); res.Value != "10" {
		t.Fatalf("vm eval: %+v", res)
	}
	if _, misses, _ := i.EvalCacheStats(); misses == 0 {
		t.Error("vm eval did not go through the compile cache")
	}
	// Switching evaluators mid-stream must keep interpreter state.
	i.SetEvalCacheSize(0)
	if res := i.EvalScript(`incr a`); res.Value != "6" {
		t.Fatalf("classic after vm: %+v", res)
	}
	if hits, misses, _ := i.EvalCacheStats(); hits+misses != 0 {
		t.Errorf("classic eval reported cache traffic %d/%d", hits, misses)
	}
	i.SetEvalCacheSize(DefaultEvalCacheSize)
	if res := i.EvalScript(`incr a`); res.Value != "7" {
		t.Fatalf("vm after classic: %+v", res)
	}
	if _, misses, _ := i.EvalCacheStats(); misses != 1 {
		t.Errorf("vm after classic: %d compile-cache misses, want 1", misses)
	}
}

// TestVMMutationDetected corrupts a lowered program's constant pool and
// checks the differential comparison actually reports the divergence —
// the proof that the equivalence harness has teeth.
func TestVMMutationDetected(t *testing.T) {
	const script = `set a 40; expr {$a + 2}`
	i := New()
	if res := i.EvalScript(script); res.Value != "42" {
		t.Fatalf("cold run: %+v", res)
	}
	// The front cache now holds the lowered program; corrupt the literal
	// "40" in its constant pool.
	if i.vmFront == nil || i.vmFrontKey != script {
		t.Fatalf("front cache not primed")
	}
	mutated := false
	for bi := range i.vmFront.prog.Consts {
		if i.vmFront.prog.Consts[bi].Text() == "40" {
			i.vmFront.prog.Consts[bi] = vm.StringValue("41")
			mutated = true
		}
	}
	if !mutated {
		t.Fatalf("constant pool holds no literal 40: %v", i.vmFront.prog.Consts)
	}
	ref := newUncached()
	rc := ref.EvalScript(script)
	rv := i.EvalScript(script)
	if rc == rv {
		t.Fatalf("mutation was not detected: classic=%+v vm=%+v", rc, rv)
	}
}
