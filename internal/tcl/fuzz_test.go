package tcl

import (
	"strings"
	"testing"
)

// fuzzInterp builds an interpreter hardened for differential fuzzing:
// output captured, step-bounded, and with every command that touches the
// process or filesystem (or reports wall-clock time, which would differ
// between the two runs by construction) removed.
func fuzzInterp(cacheSize int, out *strings.Builder) *Interp {
	i := New()
	i.SetEvalCacheSize(cacheSize)
	i.Stdout = out
	i.Stderr = out
	i.StepLimit = 4000
	for _, name := range []string{"exec", "source", "cd", "gets", "exit", "pwd", "time"} {
		i.Unregister(name)
	}
	return i
}

// FuzzEvalCacheEquivalence runs the vm under cache pressure: a one-entry
// compile cache, so every nested body, proc body, and expression evicts
// the last one and is lowered again on its next evaluation, while the
// one-entry front caches keep pointing at evicted programs. The result
// must still match the classic walker (compile caches off) on value,
// error text, output, and step count. FuzzVMEquivalence covers the
// default cache bound; this target covers eviction and re-lowering.
func FuzzEvalCacheEquivalence(f *testing.F) {
	for _, s := range []string{
		`set a 5; while {$a > 0} {incr a -1}; set a`,
		`proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]} }; fib 9`,
		`foreach x {1 2 3} { puts "item $x" }`,
		`catch {error boom} msg; set msg`,
		`set l [list a b c]; lappend l "d e"; llength $l`,
		`switch -glob ab* {a* {format star} default {format none}}`,
		`expr {3.5 * 2 + (7 % 3)}`,
		`string match {[a-c]?} bz`,
		`subst {nested [expr {1+1}] $tcl_version}`,
		`while 1 {}`,
		`unknown_command_xyz 1 2`,
		"set x {unbalanced",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 1024 {
			t.Skip("bounded script size")
		}
		// Long digit runs turn into huge format widths / loop counts that
		// can exhaust memory before the step limit can bite.
		if hasLongDigitRun(script, 8) {
			t.Skip("pathological numeric literal")
		}
		var outC, outV strings.Builder
		classic := fuzzInterp(0, &outC)
		vmi := fuzzInterp(1, &outV)
		checkEquivalent(t, script, classic, vmi, &outC, &outV)
	})
}

// checkEquivalent evaluates script on the classic referee and on vmi and
// fails on any difference in value, error text, output, or step count.
func checkEquivalent(t *testing.T, script string, classic, vmi *Interp, outC, outV *strings.Builder) {
	t.Helper()
	valC, errC := classic.Eval(script)
	valV, errV := vmi.Eval(script)
	if (errC == nil) != (errV == nil) {
		t.Fatalf("error presence diverged: classic=%v vm=%v script=%q", errC, errV, script)
	}
	if errC != nil && errC.Error() != errV.Error() {
		t.Fatalf("error text diverged:\nclassic: %s\nvm:      %s\nscript=%q", errC, errV, script)
	}
	if valC != valV {
		t.Fatalf("result diverged: classic=%q vm=%q script=%q", valC, valV, script)
	}
	if outC.String() != outV.String() {
		t.Fatalf("output diverged:\nclassic: %q\nvm:      %q\nscript=%q", outC.String(), outV.String(), script)
	}
	if sc, sv := classic.Steps(), vmi.Steps(); sc != sv {
		t.Fatalf("step count diverged: classic=%d vm=%d script=%q", sc, sv, script)
	}
}

func hasLongDigitRun(s string, n int) bool {
	run := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			if run++; run >= n {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}
