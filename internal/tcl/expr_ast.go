package tcl

import (
	"strings"

	"repro/internal/tcl/vm"
)

// The expr AST: a parse-once form of Tcl expressions, the front end the vm
// lowers to bytecode (vm_compile.go). The classic evaluator (exprParser)
// re-lexes the expression on every call; the AST keeps the operator
// structure and leaves the value-dependent work — variable reads, [command]
// scripts, quoted-string substitution, truth tests — to the bytecode. The
// nodes are data: nothing walks the tree at evaluation time. Laziness
// follows the runtime parser's `eval` flag: every node runs on every
// evaluation under a `taken` flag, and untaken nodes skip variable reads,
// bracket scripts, and operator application, while quoted strings
// substitute regardless (the runtime parser substitutes them even on
// untaken sides, because for strings parsing is substitution).
//
// Error timing is the subtle part. The classic evaluator interleaves
// parsing with evaluation, so an evaluation error to the LEFT of a syntax
// error surfaces first — it is reached first in the left-to-right walk.
// Compilation therefore never returns parse errors directly: a parse error
// becomes an errNode raised in source position (errors reached later stay
// behind errors raised earlier), deferred checks (close parenthesis,
// trailing garbage) become errAfterNodes that run their operand before
// erroring, and compilation halts at the error exactly where the classic
// parser stopped.

// compileExpr parses text into an AST.
func compileExpr(text string) exprNode {
	ec := &exprCompiler{compiler: compiler{parser{src: text}}, open: make([]exprNode, 0, 8)}
	root := ec.ternary()
	if !ec.halted {
		ec.skipSpace()
		if ec.pos < len(ec.src) {
			// Trailing garbage: the classic parser raises this only after
			// the full expression evaluated without error.
			root = &errAfterNode{inner: root, err: Errf("syntax error in expression %q", text)}
		}
	}
	return root
}

// exprCompiler mirrors exprParser's grammar, producing nodes instead of
// values. It embeds compiler for the script-substitution machinery behind
// quoted strings, variable references, and bracket operands. halted is set
// when compilation hit a parse error or a poisoned embedded script; the
// classic parser never looks past that point, so neither does compilation —
// every level unwinds without consuming further operators. open lists
// the constructs open at the current position, outermost first: an
// operator node awaiting its operand, or an errNode for one that must see
// its closing token next (a then-arm's ':', a group's or function's ')').
type exprCompiler struct {
	compiler
	halted bool
	open   []exprNode
}

// The open constructs that need no node of their own: an && or || tests
// its rhs's truth, and the three closing checks raise.
var (
	openAnd   exprNode = &andNode{}
	openOr    exprNode = &orNode{}
	openColon exprNode = errNode{Errf(`missing ":" in ternary expression`)}
	openParen exprNode = errNode{Errf("looking for close parenthesis")}
	openFunc  exprNode = errNode{Errf("missing close parenthesis in function call")}
)

// operand parses one operand of the open construct o.
func (ec *exprCompiler) operand(o exprNode, parse func() exprNode) exprNode {
	ec.open = append(ec.open, o)
	n := parse()
	ec.open = ec.open[:len(ec.open)-1]
	return n
}

// fail records a parse error raised at this source position.
func (ec *exprCompiler) fail(res Result) exprNode {
	ec.halted = true
	return errNode{err: res}
}

func (ec *exprCompiler) skipSpace() {
	for ec.pos < len(ec.src) {
		switch ec.src[ec.pos] {
		case ' ', '\t', '\n', '\r':
			ec.pos++
		default:
			return
		}
	}
}

func (ec *exprCompiler) peekOp(ops ...string) string {
	ec.skipSpace()
	return matchExprOp(ec.src[ec.pos:], ops...)
}

func (ec *exprCompiler) ternary() exprNode {
	cond := ec.or()
	if ec.halted || ec.peekOp("?") == "" {
		return cond
	}
	ec.pos++ // consume '?'
	left := ec.operand(openColon, ec.ternary)
	if ec.halted {
		return &ternNode{cond: cond, left: left}
	}
	ec.skipSpace()
	if ec.pos >= len(ec.src) || ec.src[ec.pos] != ':' {
		// A nil right arm raises the missing-":" error after the cond and
		// taken arm have evaluated, matching the classic order.
		ec.halted = true
		return &ternNode{cond: cond, left: left}
	}
	ec.pos++
	right := ec.ternary()
	return &ternNode{cond: cond, left: left, right: right}
}

func (ec *exprCompiler) or() exprNode {
	n := ec.and()
	for !ec.halted && ec.peekOp("||") != "" {
		ec.pos += 2
		n = &orNode{lhs: n, rhs: ec.operand(openOr, ec.and)}
	}
	return n
}

func (ec *exprCompiler) and() exprNode {
	n := ec.bitOr()
	for !ec.halted && ec.peekOp("&&") != "" {
		ec.pos += 2
		n = &andNode{lhs: n, rhs: ec.operand(openAnd, ec.bitOr)}
	}
	return n
}

func (ec *exprCompiler) binaryLevel(next func() exprNode, ops ...string) exprNode {
	n := next()
	for !ec.halted {
		op := ec.peekOp(ops...)
		if op == "" {
			break
		}
		ec.pos += len(op)
		bop, _ := vm.BinOpByName(op)
		bn := &binNode{op: bop, lhs: n}
		bn.rhs = ec.operand(bn, next)
		n = bn
	}
	return n
}

func (ec *exprCompiler) bitOr() exprNode {
	return ec.binaryLevel(ec.bitXor, "|")
}
func (ec *exprCompiler) bitXor() exprNode {
	return ec.binaryLevel(ec.bitAnd, "^")
}
func (ec *exprCompiler) bitAnd() exprNode {
	return ec.binaryLevel(ec.equality, "&")
}
func (ec *exprCompiler) equality() exprNode {
	return ec.binaryLevel(ec.relational, "==", "!=")
}
func (ec *exprCompiler) relational() exprNode {
	return ec.binaryLevel(ec.shift, "<=", ">=", "<", ">")
}
func (ec *exprCompiler) shift() exprNode {
	return ec.binaryLevel(ec.additive, "<<", ">>")
}
func (ec *exprCompiler) additive() exprNode {
	return ec.binaryLevel(ec.multiplicative, "+", "-")
}
func (ec *exprCompiler) multiplicative() exprNode {
	return ec.binaryLevel(ec.unaryLevel, "*", "/", "%")
}

func (ec *exprCompiler) unaryLevel() exprNode {
	ec.skipSpace()
	if ec.pos < len(ec.src) {
		switch c := ec.src[ec.pos]; c {
		case '-', '+', '!', '~':
			if c == '!' && ec.pos+1 < len(ec.src) && ec.src[ec.pos+1] == '=' {
				break
			}
			ec.pos++
			un := &unNode{op: c}
			un.operand = ec.operand(un, ec.unaryLevel)
			return un
		}
	}
	return ec.primary()
}

func (ec *exprCompiler) primary() exprNode {
	ec.skipSpace()
	if ec.pos >= len(ec.src) {
		return ec.fail(Errf("premature end of expression"))
	}
	switch c := ec.src[ec.pos]; {
	case c == '(':
		ec.pos++
		n := ec.operand(openParen, ec.ternary)
		if ec.halted {
			return n
		}
		ec.skipSpace()
		if ec.pos >= len(ec.src) || ec.src[ec.pos] != ')' {
			ec.halted = true
			return &errAfterNode{inner: n, err: Errf("looking for close parenthesis")}
		}
		ec.pos++
		return n
	case c == '$':
		seg, n, res, poisoned := ec.compileVarRef()
		switch {
		case res.Code != OK:
			return ec.skipRef(errNode{res})
		case seg.kind == segLiteral && ec.pos+n < len(ec.src) && ec.src[ec.pos+n] == '(':
			return ec.skipRef(nil)
		}
		ec.pos += n
		if poisoned {
			ec.halted = true
		}
		if seg.kind == segLiteral {
			// A bare '$' substitutes to itself.
			return litNode{v: strVal(seg.text)}
		}
		return &varNode{seg: seg}
	case c == '[':
		// The untaken side of a lazy operator skips brackets lexically
		// (exprParser.skipBracket); record whether that skip would have
		// succeeded so untaken evaluation can reproduce its error.
		skipP := &exprParser{src: ec.src, pos: ec.pos}
		_, skipRes := skipP.skipBracket()
		ec.pos++
		sub := &compiler{parser{src: ec.src, pos: ec.pos}}
		nested := sub.compile(true)
		switch {
		case nested.doomed():
			ec.halted = true
			ec.pos = nested.end
		case !nested.endAtBracket:
			missing := Errf("missing close-bracket")
			nested.parseErr = &missing
			ec.halted = true
			ec.pos = nested.end
		default:
			ec.pos = nested.end + 1 // consume ']'
		}
		return &bracketNode{script: nested, skipOK: skipRes.Code == OK}
	case c == '"':
		return ec.compileQuotedLoose()
	case c == '{':
		word, res := ec.parseBracedWordLoose()
		if res.Code != OK {
			return ec.fail(res)
		}
		return litNode{v: strVal(word)}
	case c >= '0' && c <= '9' || c == '.':
		v, n, res := scanExprNumber(ec.src, ec.pos)
		ec.pos = n
		if res.Code != OK {
			return ec.fail(res)
		}
		return litNode{v: v}
	case isVarNameChar(c):
		return ec.funcCall()
	default:
		return ec.fail(Errf("syntax error in expression: unexpected %q", string(c)))
	}
}

// skipRef compiles a $-reference that fails to parse (fail, as for an
// unclosed ${name) or a bare '$' before '('. Untaken, the classic
// evaluator passes over either with its lexical skip (skipVarRef), and so
// does compilation. Taken, the first raises; the second yields "$" and
// the '(' stops the parse, so each open construct, innermost first,
// applies its operator until one needing a closing token raises (trailing
// garbage when none is open). That unwind is the node's tail.
func (ec *exprCompiler) skipRef(fail exprNode) exprNode {
	ec.pos += (&exprParser{src: ec.src, pos: ec.pos}).skipVarRef()
	if fail != nil {
		return &skipRefNode{tail: []exprNode{fail}}
	}
	var tail []exprNode
	for k := len(ec.open) - 1; k >= 0; k-- {
		tail = append(tail, ec.open[k])
		if _, closing := ec.open[k].(errNode); closing {
			return &skipRefNode{tail: tail}
		}
	}
	return &skipRefNode{tail: append(tail, errNode{Errf("syntax error in expression %q", ec.src)})}
}

// compileQuotedLoose compiles a quoted-string operand to its substitution
// segments (the expression form has no word-boundary check after the close
// quote). An unterminated string still substitutes its prefix before the
// missing-close-quote error, matching the classic substitute-as-you-parse
// order.
func (ec *exprCompiler) compileQuotedLoose() exprNode {
	ec.pos++ // consume opening quote
	var b segBuilder
	for !ec.done() {
		if ec.src[ec.pos] == '"' {
			ec.pos++
			w := b.word()
			if w.segs == nil {
				return litNode{v: strVal(w.lit)}
			}
			return &quotedNode{segs: w.segs}
		}
		res, poisoned := ec.compileSubstUnit(&b)
		if res.Code != OK {
			ec.halted = true
			return &errAfterNode{inner: &quotedNode{segs: wordSegs(b.word())}, err: res}
		}
		if poisoned {
			ec.halted = true
			return &quotedNode{segs: wordSegs(b.word())}
		}
	}
	ec.halted = true
	return &errAfterNode{
		inner: &quotedNode{segs: wordSegs(b.word())},
		err:   Errf("missing close-quote"),
	}
}

// funcCall compiles name(arg) math functions and bare boolean words.
func (ec *exprCompiler) funcCall() exprNode {
	start := ec.pos
	for ec.pos < len(ec.src) && isVarNameChar(ec.src[ec.pos]) {
		ec.pos++
	}
	name := ec.src[start:ec.pos]
	ec.skipSpace()
	if ec.pos >= len(ec.src) || ec.src[ec.pos] != '(' {
		switch strings.ToLower(name) {
		case "true", "yes", "on", "false", "no", "off":
			return litNode{v: strVal(name)}
		}
		return ec.fail(Errf("syntax error in expression: unexpected bare word %q", name))
	}
	ec.pos++
	arg := ec.operand(openFunc, ec.ternary)
	if ec.halted {
		return &funcNode{name: name, arg: arg}
	}
	ec.skipSpace()
	if ec.pos >= len(ec.src) || ec.src[ec.pos] != ')' {
		ec.halted = true
		return &errAfterNode{inner: arg, err: Errf("missing close parenthesis in function call")}
	}
	ec.pos++
	return &funcNode{name: name, arg: arg}
}

// --- nodes --------------------------------------------------------------

// exprNode is one node of a compiled expression: errNode, *errAfterNode,
// litNode, *varNode, *bracketNode, *quotedNode, *unNode, *binNode,
// *andNode, *orNode, *ternNode, *funcNode or *skipRefNode. The lowering
// switches on the concrete type.
type exprNode any

// errNode is a parse error in operand position, raised when the
// left-to-right walk reaches this point, regardless of takenness.
type errNode struct{ err Result }

// errAfterNode is a deferred parse check (close parenthesis, trailing
// garbage, missing close-quote): the operand evaluates first — its errors
// win — then the parse error is raised.
type errAfterNode struct {
	inner exprNode
	err   Result
}

// litNode is a value fixed at compile time: numbers, braced strings, bare
// boolean words, substitution-free quoted strings, and the lone '$'.
type litNode struct{ v exprValue }

// varNode reads a variable; untaken sides skip the read, index included.
type varNode struct{ seg wordSeg }

// bracketNode runs a compiled [command] script; untaken sides skip it but
// reproduce the lexical skip's missing-close-bracket error.
type bracketNode struct {
	script *compiledScript
	skipOK bool
}

// quotedNode substitutes a quoted string. The substitution runs even on
// untaken sides — for strings, parsing is substitution in the classic
// evaluator — but the value is discarded there.
type quotedNode struct{ segs []wordSeg }

type unNode struct {
	op      byte
	operand exprNode
}

// binNode's lhsReg is the lowering's register for lhs, read by a
// skipRefNode in rhs.
type binNode struct {
	op       vm.BinOp
	lhs, rhs exprNode
	lhsReg   int32
}

type orNode struct{ lhs, rhs exprNode }

type andNode struct{ lhs, rhs exprNode }

// ternNode is cond ? left : right. A nil right arm means compilation
// halted before the ':'; the classic parser raises the missing-":" error
// after the cond and the taken arm have evaluated.
type ternNode struct{ cond, left, right exprNode }

type funcNode struct {
	name string
	arg  exprNode
}

// skipRefNode is a $-reference skipped lexically when untaken (see
// skipRef): untaken it yields 0; taken it applies tail to "$" and raises.
type skipRefNode struct{ tail []exprNode }
