package tcl

import (
	"strings"
	"testing"
)

// FuzzVMEquivalence is the differential driver behind the vm: the same
// script runs under the classic walker (the frozen referee) and the
// register bytecode vm, and both must agree on value, error text,
// captured output, and step count. The bytecode compiler (with its
// skeleton and expr-AST front ends) and the classic parser are
// independent implementations of the same language, so any divergence is
// a bug in one of them. Each script also runs twice in the
// vm interpreter so warm inline caches and memoized programs are fuzzed,
// not just the cold compile.
func FuzzVMEquivalence(f *testing.F) {
	for _, s := range []string{
		// The FuzzEvalCacheEquivalence seeds (its corpus files are
		// mirrored under testdata/fuzz/FuzzVMEquivalence).
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
		// vm-specific seeds: specialized opcodes, inline-cache churn,
		// lazy expression operators, and the native-value channel.
		`set t 0; foreach n {1 2 3 4} { if {$n % 2} { incr t $n } else { set t [expr {$t * 2}] } }; set t`,
		`rename set s2; s2 a 1; rename s2 set; set a`,
		`proc incr {v args} { return shadowed }; incr q`,
		`set a 0x10; set b [set a]; expr {$a == $b}`,
		`expr {1 ? [expr {2 + 3}] : [die]}`,
		`expr {0 && 1/0}`,
		`set x 21; set y 3; expr {($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)}`,
		`set n v; set $n 9; incr $n; set v`,
		// Computed indices, element spellings, parse errors, and quoted
		// operands, each lowered to bytecode like any other construct.
		`set i k; set a(k) 3; set x $a($i)`,
		`set i nosuch; set a(k) 3; catch {set x $a($i)} msg; set msg`,
		`set a(k) 4; set x ${a(k)}`,
		`set n 0; catch {set x $a([incr n]} m; set n`,
		`set y 1; set z [incr y] "a[incr y]b`,
		`set t 0; expr {0 && "[incr t]"}; set t`,
		`set i k; set a(k) 3; expr {$a($i) * 2}`,
		`expr {0 && $a($nosuch)}`,
		`expr {1 ? 2}`,
		`expr {abs(1}`,
		`expr {1 2}`,
		// Untaken '$(' takes the lexical skip's extent.
		`expr 00&&$(0`,
		`expr {0 && $(x)}`,
		`expr {1 ? 2 : $(y)}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 1024 {
			t.Skip("bounded script size")
		}
		if hasLongDigitRun(script, 8) {
			t.Skip("pathological numeric literal")
		}
		var outC, outV strings.Builder
		classic := fuzzInterp(0, &outC)
		vmi := fuzzInterp(DefaultEvalCacheSize, &outV)
		checkEquivalent(t, script, classic, vmi, &outC, &outV)

		// Warm pass: a second vm interpreter runs the script twice so the
		// memoized programs and primed inline caches face the same check.
		// The referee reruns too — scripts are not idempotent.
		var outC2, outV2 strings.Builder
		classic2 := fuzzInterp(0, &outC2)
		vmi2 := fuzzInterp(DefaultEvalCacheSize, &outV2)
		classic2.Eval(script)
		vmi2.Eval(script)
		classic2.ResetSteps()
		vmi2.ResetSteps()
		outC2.Reset()
		outV2.Reset()
		valC2, errC2 := classic2.Eval(script)
		valV2, errV2 := vmi2.Eval(script)
		if (errC2 == nil) != (errV2 == nil) || valC2 != valV2 || outC2.String() != outV2.String() ||
			classic2.Steps() != vmi2.Steps() {
			t.Fatalf("warm vm run diverged: classic=%q/%v/%q/%d vm=%q/%v/%q/%d script=%q",
				valC2, errC2, outC2.String(), classic2.Steps(),
				valV2, errV2, outV2.String(), vmi2.Steps(), script)
		}
		if errC2 != nil && errV2 != nil && errC2.Error() != errV2.Error() {
			t.Fatalf("warm vm error text diverged:\nclassic: %s\nvm: %s\nscript=%q", errC2, errV2, script)
		}
	})
}
