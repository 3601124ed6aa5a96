// Package vm defines the register bytecode the Tcl interpreter executes
// whenever its compile caches are on: a dual string/native Value representation, the
// instruction set for compiled scripts and expressions (constants pool,
// interned variable slots, jump-threaded control flow, inline-cached
// command dispatch), and a disassembler for golden tests.
//
// The package is deliberately host-free: it knows nothing about the
// interpreter (frames, commands, hooks). Programs are pure data produced
// by the compiler in package tcl and executed by the interpreter loop
// there; everything here — value arithmetic, opcode layout, disassembly —
// is a pure function, which is what makes compile→disasm→recompile
// stability testable and keeps the classic evaluator the sole semantic
// referee.
package vm

import (
	"math"
	"strconv"
	"strings"
)

// Kind is a Value's native representation.
type Kind uint8

const (
	// KString is a plain string with no (known) numeric interpretation.
	KString Kind = iota
	// KInt is a native int64; the string rep is materialized on demand.
	KInt
	// KFloat is a native float64; the string rep is materialized on demand.
	KFloat
)

// Value is the dual-representation Tcl value: every value can render as a
// string (Tcl's observable universe), but values produced by arithmetic
// keep their native int64/float64 so downstream operations skip the
// parse → compute → format round-trip. A Value mirrors the classic
// evaluator's exprValue exactly: a KInt/KFloat value carries no original
// string (the classic operandValue discards it too — "0x10" reads as 16
// and compares as "16"), so rendering is always canonical. The native
// payload is one uint64 holding either the int64 or the float64 bits; a
// KInt value may additionally carry its canonical rendering in s so
// repeated Text calls skip the format (see IntStringValue).
type Value struct {
	kind Kind
	bits uint64
	s    string
}

// StringValue wraps a string with no numeric claim.
func StringValue(s string) Value { return Value{kind: KString, s: s} }

// IntValue makes a native integer value.
func IntValue(i int64) Value { return Value{kind: KInt, bits: uint64(i)} }

// IntStringValue makes a native integer that already knows its canonical
// decimal rendering; s must equal strconv.FormatInt(i, 10).
func IntStringValue(i int64, s string) Value {
	return Value{kind: KInt, bits: uint64(i), s: s}
}

// FloatValue makes a native float value.
func FloatValue(f float64) Value { return Value{kind: KFloat, bits: math.Float64bits(f)} }

// BoolValue is Tcl's boolean: the integer 1 or 0.
func BoolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

// Kind reports the native representation.
func (v Value) Kind() Kind { return v.kind }

// Int returns the native int64 (meaningful only for KInt).
func (v Value) Int() int64 { return int64(v.bits) }

// Float returns the native float64 (meaningful only for KFloat).
func (v Value) Float() float64 { return math.Float64frombits(v.bits) }

// Text renders the value as its Tcl string, materializing native numbers
// exactly the way the classic evaluator's exprValue.String does.
func (v Value) Text() string {
	switch v.kind {
	case KInt:
		if v.s != "" {
			return v.s
		}
		return strconv.FormatInt(int64(v.bits), 10)
	case KFloat:
		return FormatFloat(v.Float())
	default:
		return v.s
	}
}

// FormatFloat renders a float the way Tcl does: always distinguishable
// from an integer (a trailing ".0" if needed).
func FormatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	s := strconv.FormatFloat(f, 'g', 12, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// ParseNumber classifies a string as an integer or float literal, trying
// base-0 integers first exactly like the classic parseNumber.
func ParseNumber(s string) (Value, bool) {
	if s == "" {
		return Value{}, false
	}
	if i, err := strconv.ParseInt(s, 0, 64); err == nil {
		return IntValue(i), true
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatValue(f), true
	}
	return Value{}, false
}

// ClassifyOperand is operandValue: a substitution result whose (untrimmed)
// text parses as a number becomes that number, losing the original
// spelling; anything else stays a string.
func ClassifyOperand(s string) Value {
	if n, ok := ParseNumber(s); ok {
		return n
	}
	return StringValue(s)
}

// Numeric coerces v to a number if possible (trimming, as the classic
// exprValue.numeric does for strings).
func (v Value) Numeric() (Value, bool) {
	switch v.kind {
	case KInt, KFloat:
		return v, true
	default:
		return ParseNumber(strings.TrimSpace(v.s))
	}
}

func (v Value) asFloat() float64 {
	if v.kind == KFloat {
		return v.Float()
	}
	return float64(int64(v.bits))
}

// Truth interprets v as a boolean condition; the second return is the
// error message ("" on success), preformatted to match the classic
// evaluator's exprValue.truth.
func (v Value) Truth() (bool, string) {
	if n, ok := v.Numeric(); ok {
		if n.kind == KInt {
			return n.bits != 0, ""
		}
		return n.Float() != 0, ""
	}
	switch strings.ToLower(strings.TrimSpace(v.s)) {
	case "true", "yes", "on":
		return true, ""
	case "false", "no", "off":
		return false, ""
	}
	return false, "expected boolean value but got " + strconv.Quote(v.s)
}
