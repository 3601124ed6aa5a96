package tcl

import (
	"strconv"
	"strings"

	"repro/internal/tcl/vm"
)

// The bytecode lowering pass. lowerScript turns a compiled skeleton
// (compile.go) into a vm.Program; lowerExprText turns an expression AST
// (expr_ast.go) into a vm.ExprProg. Lowering is total: every command and
// every expression compiles to code. A command carrying a parse error (or
// a poisoned word) substitutes the words before the error and then raises
// it; an expression parse error raises in source position after the
// operands before it; a quoted string or a computed-index operand in an
// expression runs a word block, a nested program that substitutes one word
// with the script-side ops. The classic evaluator remains the semantic
// referee; the bytecode reproduces it.
//
// Everything here is deterministic: pools are filled in first-use walk
// order and no map is ever iterated, which is what makes the golden
// compile→disasm→recompile stability test meaningful.

// vmPool carries the tree-global lowering state: inline-cache slot
// counters, numbered across the whole program tree, nested blocks and
// embedded expressions included.
type vmPool struct {
	cmdSlots  int32
	varSlots  int32
	specSlots int32
}

func (p *vmPool) cmdSlot() int32 { s := p.cmdSlots; p.cmdSlots++; return s }

func (p *vmPool) varSlot() int32 { s := p.varSlots; p.varSlots++; return s }

func (p *vmPool) specSlot() int32 { s := p.specSlots; p.specSlots++; return s }

func (p *vmPool) counts() vm.SlotCounts {
	return vm.SlotCounts{Cmds: p.cmdSlots, Vars: p.varSlots, Specs: p.specSlots}
}

// lowerRootScript lowers a top-level skeleton.
func lowerRootScript(cs *compiledScript) *vm.Program {
	pool := &vmPool{}
	p := lowerScript(cs, pool)
	p.Slots = pool.counts()
	return p
}

// lowerRootExpr lowers a standalone expression (the vm expr cache entry).
func lowerRootExpr(src string) (*vm.ExprProg, vm.SlotCounts) {
	pool := &vmPool{}
	p := lowerExprText(src, pool)
	return p, pool.counts()
}

// progBuilder accumulates one vm.Program. Registers are a per-command
// scratch file: the counter resets to zero for every command and NRegs
// records the high-water mark.
type progBuilder struct {
	pool     *vmPool
	code     []vm.Instr
	consts   interner[vm.Value]
	names    interner[string]
	litWords [][]string
	lists    [][]string
	blocks   []vm.Block
	exprs    []*vm.ExprProg
	aux      []vm.CmdAux
	foreach  []vm.ForeachAux
	raises   []vm.Raise
	nreg     int32
	maxReg   int32
}

func lowerScript(cs *compiledScript, pool *vmPool) *vm.Program {
	b := &progBuilder{pool: pool}
	for k := range cs.cmds {
		b.lowerCmd(&cs.cmds[k])
	}
	if cs.parseErr != nil {
		b.emitRaise(*cs.parseErr)
	}
	p := b.program()
	p.EndAtBracket = cs.endAtBracket
	return p
}

// lowerWordBlock lowers the substitution of one word to a block that
// yields its value: the expression machine's quoted strings and
// element/computed-index variable operands.
func lowerWordBlock(segs []wordSeg, pool *vmPool) *vm.Program {
	b := &progBuilder{pool: pool}
	dst := b.reg()
	b.lowerSegsInto(segs, dst)
	b.emit(vm.Instr{Op: vm.OpYield, A: dst})
	return b.program()
}

func (b *progBuilder) program() *vm.Program {
	return &vm.Program{
		Code: b.code, Consts: b.consts.vals, Names: b.names.vals,
		LitWords: b.litWords, Lists: b.lists, Blocks: b.blocks,
		Exprs: b.exprs, Aux: b.aux, Foreach: b.foreach, Raises: b.raises,
		NRegs: b.maxReg,
	}
}

func (b *progBuilder) emit(in vm.Instr) int32 {
	b.code = append(b.code, in)
	return int32(len(b.code) - 1)
}

func (b *progBuilder) reg() int32 {
	r := b.nreg
	b.nreg++
	if b.nreg > b.maxReg {
		b.maxReg = b.nreg
	}
	return r
}

func (b *progBuilder) konst(v vm.Value) int32 { return b.consts.add(v) }

func (b *progBuilder) name(n string) int32 { return b.names.add(n) }

// interner assigns dense indexes to distinct values. Most blocks intern a
// handful, so it scans linearly until internScan values and indexes them
// in a map only past that: a map per nested block would be most of the
// lowering's garbage.
type interner[T comparable] struct {
	vals []T
	ix   map[T]int32
}

const internScan = 16

func (in *interner[T]) add(v T) int32 {
	if in.ix != nil {
		if i, ok := in.ix[v]; ok {
			return i
		}
	} else {
		for i, x := range in.vals {
			if x == v {
				return int32(i)
			}
		}
	}
	i := int32(len(in.vals))
	in.vals = append(in.vals, v)
	if in.ix != nil {
		in.ix[v] = i
	} else if len(in.vals) > internScan {
		in.ix = make(map[T]int32, 2*len(in.vals))
		for k, x := range in.vals {
			in.ix[x] = int32(k)
		}
	}
	return i
}

func (b *progBuilder) words(w []string) int32 {
	b.litWords = append(b.litWords, w)
	return int32(len(b.litWords) - 1)
}

func (b *progBuilder) list(items []string) int32 {
	b.lists = append(b.lists, items)
	return int32(len(b.lists) - 1)
}

// emitRaise ends the command (or substitution) in progress with res.
func (b *progBuilder) emitRaise(res Result) {
	b.raises = append(b.raises, vm.Raise{Code: int32(res.Code), Msg: res.Value})
	b.emit(vm.Instr{Op: vm.OpRaise, A: int32(len(b.raises) - 1)})
}

func (b *progBuilder) addAux(a vm.CmdAux) int32 {
	b.aux = append(b.aux, a)
	return int32(len(b.aux) - 1)
}

// block lowers an already-compiled nested script (a [bracket] segment).
func (b *progBuilder) block(cs *compiledScript, src string) int32 {
	b.blocks = append(b.blocks, vm.Block{Prog: lowerScript(cs, b.pool), Src: src})
	return int32(len(b.blocks) - 1)
}

// blockFromSrc compiles and lowers a body argument (if arm, loop body).
func (b *progBuilder) blockFromSrc(src string) int32 {
	return b.block(compileScript(src, false), src)
}

func (b *progBuilder) expr(src string) int32 {
	b.exprs = append(b.exprs, lowerExprText(src, b.pool))
	return int32(len(b.exprs) - 1)
}

// lowerCmd lowers one command: specialized ops when the shape allows,
// the generic inline-cached invoke otherwise. A command that can never
// dispatch substitutes its words, then raises its error.
func (b *progBuilder) lowerCmd(cmd *compiledCmd) {
	switch {
	case cmd.parseErr != nil:
		b.lowerDoomed(cmd, *cmd.parseErr)
	case cmd.poisoned:
		// Unreachable by construction: a poisoned word always fails
		// substitution. Raise anyway so a logic slip cannot dispatch a
		// half-parsed command.
		b.lowerDoomed(cmd, Errf("internal: poisoned command survived substitution"))
	case !b.trySpec(cmd):
		b.lowerInvoke(cmd)
	}
}

// lowerDoomed substitutes a command's complete words and then the failing
// word's partial segments, as the classic evaluator does on its way to a
// word-level parse error, and raises err.
func (b *progBuilder) lowerDoomed(cmd *compiledCmd, err Result) {
	b.nreg = 0
	for k := range cmd.words {
		b.lowerWordInto(&cmd.words[k], b.reg())
	}
	if cmd.partial != nil {
		b.lowerSegsInto(cmd.partial, b.reg())
	}
	b.emitRaise(err)
}

// lowerWordInto emits the ops that leave one word's value in dst.
func (b *progBuilder) lowerWordInto(w *compiledWord, dst int32) {
	if w.segs == nil {
		b.emit(vm.Instr{Op: vm.OpConst, Dst: dst, A: b.konst(vm.StringValue(w.lit))})
		return
	}
	b.lowerSegsInto(w.segs, dst)
}

// lowerSegsInto emits the ops that substitute a segment list into dst.
// The segments' registers are allocated before any is lowered, so the
// registers a computed index takes never split the concat's run.
func (b *progBuilder) lowerSegsInto(segs []wordSeg, dst int32) {
	if len(segs) == 1 {
		b.lowerSegInto(&segs[0], dst)
		return
	}
	base := b.nreg
	for range segs {
		b.reg()
	}
	for k := range segs {
		b.lowerSegInto(&segs[k], base+int32(k))
	}
	b.emit(vm.Instr{Op: vm.OpConcat, Dst: dst, A: base, B: int32(len(segs))})
}

func (b *progBuilder) lowerSegInto(s *wordSeg, dst int32) {
	switch s.kind {
	case segLiteral:
		b.emit(vm.Instr{Op: vm.OpConst, Dst: dst, A: b.konst(vm.StringValue(s.text))})
	case segVar:
		slot := int32(-1) // ${a(b)}: read through GetVar's split
		if plainVarName(s.text) {
			slot = b.pool.varSlot()
		}
		b.emit(vm.Instr{Op: vm.OpVarRead, Dst: dst, A: b.name(s.text), B: slot})
	case segVarArr:
		// Adjacent literals merge, so a literal index is one segment.
		if len(s.index) == 1 && s.index[0].kind == segLiteral {
			b.emit(vm.Instr{
				Op: vm.OpArrRead, Dst: dst,
				A: b.name(s.text), B: b.name(s.index[0].text), C: b.pool.varSlot(),
			})
			return
		}
		idx := b.reg()
		b.lowerSegsInto(s.index, idx)
		b.emit(vm.Instr{
			Op: vm.OpArrDyn, Dst: dst,
			A: b.name(s.text), B: idx, C: b.pool.varSlot(),
		})
	case segVarArrOpen:
		// The classic scanner substitutes the index looking for the ')'.
		b.lowerSegsInto(s.index, b.reg())
		b.emitRaise(Errf(`missing ")" in array reference`))
	case segScript:
		b.emit(vm.Instr{Op: vm.OpBracket, Dst: dst, A: b.block(s.script, "")})
	}
}

// lowerInvoke emits the generic inline-cached dispatch of one command.
func (b *progBuilder) lowerInvoke(cmd *compiledCmd) {
	b.nreg = 0
	aux := vm.CmdAux{
		LitIdx: -1, BracketOK: cmd.bracketOK,
		CacheSlot: b.pool.cmdSlot(), SpecSlot: -1,
	}
	if cmd.litWords != nil {
		aux.Name = cmd.litWords[0]
		aux.LitIdx = b.words(cmd.litWords)
		b.emit(vm.Instr{Op: vm.OpInvoke, Dst: b.addAux(aux)})
		return
	}
	if cmd.words[0].segs == nil {
		aux.Name = cmd.words[0].lit
	}
	base := b.nreg
	n := int32(len(cmd.words))
	dsts := make([]int32, n)
	for k := range dsts {
		dsts[k] = b.reg()
	}
	for k := range cmd.words {
		b.lowerWordInto(&cmd.words[k], dsts[k])
	}
	b.emit(vm.Instr{Op: vm.OpInvoke, Dst: b.addAux(aux), A: base, B: n})
}

// --- command specializations --------------------------------------------

func (b *progBuilder) trySpec(cmd *compiledCmd) bool {
	w0 := &cmd.words[0]
	if w0.segs != nil {
		return false
	}
	switch w0.lit {
	case "set":
		return b.trySet(cmd)
	case "incr":
		return b.tryIncr(cmd)
	case "expr":
		return b.tryExpr(cmd)
	case "if":
		return b.tryIf(cmd)
	case "while":
		return b.tryWhile(cmd)
	case "foreach":
		return b.tryForeach(cmd)
	}
	return false
}

// specAux builds the shared aux record of one specialized command site.
func (b *progBuilder) specAux(name string, cmd *compiledCmd) vm.CmdAux {
	aux := vm.CmdAux{
		Name: name, LitIdx: -1, BracketOK: cmd.bracketOK,
		CacheSlot: -1, SpecSlot: b.pool.specSlot(),
	}
	if cmd.litWords != nil {
		aux.LitIdx = b.words(cmd.litWords)
	}
	return aux
}

// plainVarName reports that name is a plain scalar (no "a(b)" split).
func plainVarName(name string) bool {
	_, _, isElem := splitArrayRef(name)
	return !isElem
}

func (b *progBuilder) trySet(cmd *compiledCmd) bool {
	n := len(cmd.words)
	if n != 2 && n != 3 {
		return false
	}
	nameWord := &cmd.words[1]
	if nameWord.segs != nil || !plainVarName(nameWord.lit) {
		return false
	}
	b.nreg = 0
	aux := b.specAux("set", cmd)
	if n == 2 {
		b.emit(vm.Instr{
			Op: vm.OpGetVar, Dst: b.addAux(aux),
			A: b.name(nameWord.lit), C: b.pool.varSlot(),
		})
		return true
	}
	src := b.reg()
	b.lowerWordInto(&cmd.words[2], src)
	b.emit(vm.Instr{
		Op: vm.OpSetVar, Dst: b.addAux(aux),
		A: b.name(nameWord.lit), B: src, C: b.pool.varSlot(),
	})
	return true
}

func (b *progBuilder) tryIncr(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) < 2 || len(args) > 3 || !plainVarName(args[1]) {
		return false
	}
	delta := int32(-1)
	if len(args) == 3 {
		d, err := strconv.ParseInt(strings.TrimSpace(args[2]), 0, 64)
		if err != nil {
			// The error depends on the variable's state at runtime
			// (cmdIncr reads the variable first); stay generic.
			return false
		}
		delta = b.konst(vm.IntValue(d))
	}
	b.nreg = 0
	b.emit(vm.Instr{
		Op: vm.OpIncr, Dst: b.addAux(b.specAux("incr", cmd)),
		A: b.name(args[1]), B: delta, C: b.pool.varSlot(),
	})
	return true
}

func (b *progBuilder) tryExpr(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) < 2 {
		return false
	}
	b.nreg = 0
	text := strings.Join(args[1:], " ")
	b.emit(vm.Instr{
		Op: vm.OpExprCmd, Dst: b.addAux(b.specAux("expr", cmd)),
		A: b.expr(text),
	})
	return true
}

// parseIfChain accepts exactly the fully well-formed if grammars — the
// shapes where cmdIf's parse can never produce an arity or noise-word
// error regardless of which condition fires. Anything else (including
// shapes whose malformed tail cmdIf would ignore when an earlier
// condition is true) stays on the generic path, where cmdIf itself
// reproduces the classic behavior.
func parseIfChain(args []string) (conds, bodies []string, elseBody string, hasElse, ok bool) {
	a := args[1:]
	for {
		if len(a) == 0 {
			return nil, nil, "", false, false
		}
		cond := a[0]
		a = a[1:]
		if len(a) > 0 && a[0] == "then" {
			a = a[1:]
		}
		if len(a) == 0 {
			return nil, nil, "", false, false
		}
		conds = append(conds, cond)
		bodies = append(bodies, a[0])
		a = a[1:]
		if len(a) == 0 {
			return conds, bodies, "", false, true
		}
		switch a[0] {
		case "elseif":
			a = a[1:]
			continue
		case "else":
			a = a[1:]
			if len(a) != 1 {
				return nil, nil, "", false, false
			}
			return conds, bodies, a[0], true, true
		default:
			if len(a) == 1 {
				// Bare else body, old-Tcl style.
				return conds, bodies, a[0], true, true
			}
			return nil, nil, "", false, false
		}
	}
}

func (b *progBuilder) tryIf(cmd *compiledCmd) bool {
	if cmd.litWords == nil {
		return false
	}
	conds, bodies, elseBody, hasElse, ok := parseIfChain(cmd.litWords)
	if !ok {
		return false
	}
	b.nreg = 0
	auxIdx := b.addAux(b.specAux("if", cmd))
	enter := b.emit(vm.Instr{Op: vm.OpSpecEnter, Dst: auxIdx})
	var joinPatch []int32
	for k := range conds {
		test := b.emit(vm.Instr{Op: vm.OpTestExpr, Dst: auxIdx, A: b.expr(conds[k])})
		body := b.emit(vm.Instr{Op: vm.OpIfBody, Dst: auxIdx, A: b.blockFromSrc(bodies[k])})
		joinPatch = append(joinPatch, body)
		b.code[test].B = int32(len(b.code))
	}
	if hasElse {
		body := b.emit(vm.Instr{Op: vm.OpIfBody, Dst: auxIdx, A: b.blockFromSrc(elseBody)})
		joinPatch = append(joinPatch, body)
	} else {
		b.emit(vm.Instr{Op: vm.OpSpecDone, Dst: auxIdx})
	}
	join := int32(len(b.code))
	b.code[enter].A = join
	for _, pc := range joinPatch {
		b.code[pc].B = join
	}
	return true
}

func (b *progBuilder) tryWhile(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) != 3 {
		return false
	}
	b.nreg = 0
	auxIdx := b.addAux(b.specAux("while", cmd))
	enter := b.emit(vm.Instr{Op: vm.OpSpecEnter, Dst: auxIdx})
	test := b.emit(vm.Instr{Op: vm.OpTestExpr, Dst: auxIdx, A: b.expr(args[1])})
	b.emit(vm.Instr{Op: vm.OpLoopBody, Dst: auxIdx, A: b.blockFromSrc(args[2]), B: test})
	b.code[test].B = int32(len(b.code)) // false -> SpecDone
	b.emit(vm.Instr{Op: vm.OpSpecDone, Dst: auxIdx})
	b.code[enter].A = int32(len(b.code))
	return true
}

func (b *progBuilder) tryForeach(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) != 4 || !plainVarName(args[1]) {
		return false
	}
	items, err := ParseList(args[2])
	if err != nil {
		return false
	}
	b.nreg = 0
	auxIdx := b.addAux(b.specAux("foreach", cmd))
	b.foreach = append(b.foreach, vm.ForeachAux{
		List: b.list(items), Name: b.name(args[1]), VarSlot: b.pool.varSlot(),
	})
	fIdx := int32(len(b.foreach) - 1)
	ctr := b.reg()
	enter := b.emit(vm.Instr{Op: vm.OpSpecEnter, Dst: auxIdx})
	b.emit(vm.Instr{Op: vm.OpConst, Dst: ctr, A: b.konst(vm.IntValue(0))})
	next := b.emit(vm.Instr{Op: vm.OpForeachNext, Dst: ctr, A: fIdx})
	b.emit(vm.Instr{Op: vm.OpLoopBody, Dst: auxIdx, A: b.blockFromSrc(args[3]), B: next})
	b.code[next].B = int32(len(b.code)) // exhausted -> SpecDone
	b.emit(vm.Instr{Op: vm.OpSpecDone, Dst: auxIdx})
	b.code[enter].A = int32(len(b.code))
	return true
}

// --- expression lowering ------------------------------------------------

// lowerExprText compiles an expression to bytecode.
func lowerExprText(src string, pool *vmPool) *vm.ExprProg {
	b := &exprBuilder{pool: pool}
	root := b.lower(compileExpr(src))
	b.code = append(b.code, vm.EInstr{Op: vm.EEnd, A: root})
	return &vm.ExprProg{
		Code: b.code, Consts: b.consts.vals, Names: b.names.vals,
		Funcs: b.funcs.vals, Blocks: b.blocks,
		NRegs: b.nreg, NCtl: b.maxCtl, Src: src,
	}
}

func vmValueOf(v exprValue) vm.Value {
	switch v.kind {
	case vInt:
		return vm.IntValue(v.i)
	case vFloat:
		return vm.FloatValue(v.f)
	default:
		return vm.StringValue(v.s)
	}
}

// foldExprNode evaluates a constant subtree at compile time. Folding only
// succeeds when every operator application succeeds, so a folded subtree
// is provably side-effect- and error-free; its untaken-side value can
// differ from the unfolded ops' (which pass lhs values through untaken
// operators), but untaken values are discarded at every lazy join, so the
// difference is unobservable.
func foldExprNode(n exprNode) (vm.Value, bool) {
	switch t := n.(type) {
	case litNode:
		return vmValueOf(t.v), true
	case *unNode:
		v, ok := foldExprNode(t.operand)
		if !ok {
			return vm.Value{}, false
		}
		out, msg := vm.ApplyUnary(t.op, v)
		return out, msg == ""
	case *binNode:
		a, aok := foldExprNode(t.lhs)
		c, cok := foldExprNode(t.rhs)
		if !aok || !cok {
			return vm.Value{}, false
		}
		out, msg := vm.ApplyBinary(t.op, a, c)
		return out, msg == ""
	case *funcNode:
		a, ok := foldExprNode(t.arg)
		if !ok {
			return vm.Value{}, false
		}
		out, msg := vm.ApplyMathFunc(t.name, a)
		return out, msg == ""
	}
	return vm.Value{}, false
}

type exprBuilder struct {
	pool   *vmPool
	code   []vm.EInstr
	consts interner[vm.Value]
	names  interner[string]
	funcs  interner[string]
	blocks []vm.Block
	nreg   int32
	ctl    int32
	maxCtl int32
}

func (b *exprBuilder) reg() int32 {
	r := b.nreg
	b.nreg++
	return r
}

func (b *exprBuilder) konst(v vm.Value) int32 { return b.consts.add(v) }

func (b *exprBuilder) name(n string) int32 { return b.names.add(n) }

func (b *exprBuilder) fn(n string) int32 { return b.funcs.add(n) }

func (b *exprBuilder) pushCtl() {
	b.ctl++
	if b.ctl > b.maxCtl {
		b.maxCtl = b.ctl
	}
}

func (b *exprBuilder) popCtl() { b.ctl-- }

// lower emits the ops evaluating n and returns the result register.
func (b *exprBuilder) lower(n exprNode) int32 {
	if v, ok := foldExprNode(n); ok {
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EConst, Dst: dst, A: b.konst(v)})
		return dst
	}
	switch t := n.(type) {
	case errNode:
		return b.raise(t.err)
	case *errAfterNode:
		b.lower(t.inner)
		return b.raise(t.err)
	case *varNode:
		if t.seg.kind != segVar || !plainVarName(t.seg.text) {
			return b.word([]wordSeg{t.seg}, 0)
		}
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{
			Op: vm.EVar, Dst: dst, A: b.name(t.seg.text), B: b.pool.varSlot(),
		})
		return dst
	case *quotedNode:
		return b.word(t.segs, 1)
	case *bracketNode:
		b.blocks = append(b.blocks, vm.Block{Prog: lowerScript(t.script, b.pool)})
		blk := int32(len(b.blocks) - 1)
		skip := int32(0)
		if t.skipOK {
			skip = 1
		}
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EBracket, Dst: dst, A: blk, B: skip})
		return dst
	case *unNode:
		a := b.lower(t.operand)
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EUnary, Dst: dst, A: a, B: int32(t.op)})
		return dst
	case *binNode:
		a := b.lower(t.lhs)
		t.lhsReg = a
		c := b.lower(t.rhs)
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EOpOf(t.op), Dst: dst, A: a, B: c})
		return dst
	case *andNode:
		a := b.lower(t.lhs)
		b.code = append(b.code, vm.EInstr{Op: vm.EAndTest, A: a})
		b.pushCtl()
		c := b.lower(t.rhs)
		b.popCtl()
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EAndEnd, Dst: dst, A: a, B: c})
		return dst
	case *orNode:
		a := b.lower(t.lhs)
		b.code = append(b.code, vm.EInstr{Op: vm.EOrTest, A: a})
		b.pushCtl()
		c := b.lower(t.rhs)
		b.popCtl()
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EOrEnd, Dst: dst, A: a, B: c})
		return dst
	case *ternNode:
		c := b.lower(t.cond)
		b.code = append(b.code, vm.EInstr{Op: vm.ETernTest, A: c})
		b.pushCtl()
		l := b.lower(t.left)
		if t.right == nil {
			b.popCtl()
			return b.raise(Errf(`missing ":" in ternary expression`))
		}
		b.code = append(b.code, vm.EInstr{Op: vm.ETernElse})
		r := b.lower(t.right)
		b.popCtl()
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.ETernEnd, Dst: dst, A: l, B: r})
		return dst
	case *funcNode:
		a := b.lower(t.arg)
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EFunc, Dst: dst, A: a, B: b.fn(t.name)})
		return dst
	case *skipRefNode:
		return b.skipRef(t)
	}
	return b.raise(Errf("internal: unknown expression node %T", n))
}

// skipRef lowers a skipped reference's taken-side tail in place, then 0
// for the untaken side: every tail op is taken-aware and its final raise
// taken-only. An open && or || tests the "$" side's truth in a frame of
// its own.
func (b *exprBuilder) skipRef(t *skipRefNode) int32 {
	cur := b.lower(litNode{v: strVal("$")})
	for _, o := range t.tail {
		in := vm.EInstr{Dst: b.reg(), B: cur}
		switch n := o.(type) {
		case *binNode:
			in.Op, in.A = vm.EOpOf(n.op), n.lhsReg
		case *unNode:
			in.Op, in.A, in.B = vm.EUnary, cur, int32(n.op)
		case errNode:
			in.Op, in.A, in.B = vm.ERaise, b.konst(vm.StringValue(n.err.Value)), 1
		default:
			one := b.lower(litNode{v: intVal(1)})
			b.code = append(b.code, vm.EInstr{Op: vm.EAndTest, A: one})
			b.pushCtl()
			b.popCtl()
			in.Op, in.A = vm.EAndEnd, one
		}
		b.code = append(b.code, in)
		cur = in.Dst
	}
	return b.lower(litNode{v: intVal(0)})
}

// word lowers a substituted operand to a word block run by EWord (quoted
// != 0 for a quoted string) and returns its result register.
func (b *exprBuilder) word(segs []wordSeg, quoted int32) int32 {
	b.blocks = append(b.blocks, vm.Block{Prog: lowerWordBlock(segs, b.pool)})
	dst := b.reg()
	b.code = append(b.code, vm.EInstr{Op: vm.EWord, Dst: dst, A: int32(len(b.blocks) - 1), B: quoted})
	return dst
}

// raise emits an unconditional error. Its result register is never
// written: the expression machine has no jumps, so nothing after the
// raise runs.
func (b *exprBuilder) raise(err Result) int32 {
	b.code = append(b.code, vm.EInstr{Op: vm.ERaise, A: b.konst(vm.StringValue(err.Value))})
	return b.reg()
}
