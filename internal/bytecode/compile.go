package bytecode

import (
	"fmt"
	"math"

	"discopop/internal/ir"
)

// Compile lowers a module to a Program. The lowering is a single syntax-
// directed pass per function: statements compile to net-zero stack effect,
// expressions to exactly one pushed word, and the compiler tracks the
// value-stack depth linearly (exact on every path, because the only merge
// points — branch joins and short-circuit operators — rejoin at equal
// depth). A peephole pass then fuses the dominant opcode sequences into
// superinstructions (see fuse.go).
//
// Statically detectable runtime errors (unbound variables, call arity
// mismatches, non-variable by-reference arguments, bad frees) compile to
// OpPanic at the position where the walker would fault, so the partial
// event prefix before the fault stays bit-identical.
func Compile(m *ir.Module) *Program {
	m.NumberOps(ir.NumberStaticOps)
	c := &compiler{m: m, gbase: make(map[*ir.Var]uint64)}
	next := uint64(1)
	for _, v := range m.Vars {
		if v.Kind == ir.KGlobal {
			c.gbase[v] = next
			next += uint64(v.Elems)
		}
	}
	if next > math.MaxInt32 {
		panic(fmt.Sprintf("bytecode: global segment of %d elements exceeds the 2^31 address operand range", next))
	}
	p := &Program{GlobalsEnd: next, Funcs: make([]FuncInfo, len(m.Funcs))}
	c.code = make([]Instr, 0, 4*countStmts(m)+8)
	for i, f := range m.Funcs {
		if f.Body == nil {
			p.Funcs[i] = FuncInfo{Entry: -1}
			continue
		}
		p.Funcs[i] = c.compileFunc(f, int32(i))
	}
	p.Code = c.code
	p.Fused = c.fused
	return p
}

// countStmts estimates the instruction count for preallocation.
func countStmts(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		if f.Body != nil {
			ir.Walk(f.Body, func(ir.Stmt) { n++ })
		}
	}
	return n
}

type compiler struct {
	m     *ir.Module
	code  []Instr
	gbase map[*ir.Var]uint64
	fused int

	// Per-function state.
	fn    *ir.Func
	fnIdx int32
	slots map[*ir.Var]int32
	d     int32 // current value-stack depth
	maxD  int32
}

func (c *compiler) compileFunc(f *ir.Func, idx int32) FuncInfo {
	c.fn, c.fnIdx = f, idx
	c.slots = make(map[*ir.Var]int32, len(f.Params)+len(f.Locals))
	for i, p := range f.Params {
		c.slots[p] = int32(i)
	}
	for j, v := range f.Locals {
		c.slots[v] = int32(len(f.Params) + j)
	}
	entry := int32(len(c.code))
	c.d, c.maxD = 0, 0
	c.block(f.Body)
	if c.d != 0 {
		panic(fmt.Sprintf("bytecode: non-empty stack (%d) at end of %s", c.d, f.Name))
	}
	c.emit(Instr{Op: OpEnd, Loc: f.EndLoc})
	c.fuseFunc(int(entry))
	return FuncInfo{
		Entry:    entry,
		NSlots:   int32(len(f.Params) + len(f.Locals)),
		ArgWords: int32(len(f.Params)),
		MaxStack: c.maxD,
	}
}

func (c *compiler) emit(in Instr) int32 {
	c.code = append(c.code, in)
	return int32(len(c.code) - 1)
}

func (c *compiler) push(n int32) {
	c.d += n
	if c.d > c.maxD {
		c.maxD = c.d
	}
}

func (c *compiler) pop(n int32) {
	c.d -= n
	if c.d < 0 {
		panic("bytecode: value-stack underflow in compiler")
	}
}

// step marks the instruction at index i as a leaf-statement boundary (the
// walker's Instrs++ point).
func (c *compiler) step(i int32) {
	c.code[i].Fl |= FStep
}

// resolve maps a variable to its addressing mode: a global address, a
// frame slot, or unbound (the walker's runtime "unbound variable" fault).
func (c *compiler) resolve(v *ir.Var) (global bool, operand int32, ok bool) {
	if v.Kind == ir.KGlobal {
		return true, int32(c.gbase[v]), true
	}
	s, ok := c.slots[v]
	return false, s, ok
}

// panicUnbound emits the walker's addrOf fault for v in the current
// function.
func (c *compiler) panicUnbound(v *ir.Var, loc ir.Loc) int32 {
	return c.emit(Instr{Op: OpPanic, B: int32(PanicUnbound),
		A: int32(v.ID), C: c.fnIdx, Loc: loc})
}

// ---------------------------------------------------------------------------
// Expressions. Each compiles to code pushing exactly one word.

func (c *compiler) expr(e ir.Expr, loc ir.Loc) {
	switch n := e.(type) {
	case *ir.Const:
		c.emit(Instr{Op: OpPushC, Val: n.Val, Loc: loc})
		c.push(1)
	case *ir.Ref:
		c.refLoad(n, loc)
	case *ir.Bin:
		c.expr(n.L, loc)
		switch n.Op {
		case ir.OpLAnd, ir.OpLOr:
			op := OpAndSC
			if n.Op == ir.OpLOr {
				op = OpOrSC
			}
			j := c.emit(Instr{Op: op, Loc: loc})
			c.pop(1) // fall-through pops the left operand
			c.expr(n.R, loc)
			c.emit(Instr{Op: OpNorm, Loc: loc})
			c.code[j].A = int32(len(c.code)) // short-circuit joins after the Norm
		default:
			c.expr(n.R, loc)
			c.emit(Instr{Op: OpBin, A: int32(n.Op), Loc: loc})
			c.pop(1)
		}
	case *ir.Un:
		c.expr(n.X, loc)
		c.emit(Instr{Op: OpUn, A: int32(n.Op), Loc: loc})
	case *ir.Rand:
		c.emit(Instr{Op: OpRand, Loc: loc})
		c.push(1)
	case *ir.CallExpr:
		c.call(n, loc, false)
	default:
		panic(fmt.Sprintf("bytecode: unknown expression %T", e))
	}
}

func (c *compiler) refLoad(r *ir.Ref, loc ir.Loc) {
	global, operand, ok := c.resolve(r.Var)
	if !ok {
		// The walker's elemAddr resolves the base before evaluating the
		// index, so the fault precedes any index-expression events.
		c.panicUnbound(r.Var, loc)
		c.push(1)
		return
	}
	if r.Index == nil {
		op := OpLoadL
		if global {
			op = OpLoadG
		}
		c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), C: r.Op, Loc: loc})
		c.push(1)
		return
	}
	c.expr(r.Index, loc)
	op := OpLoadLI
	if global {
		op = OpLoadGI
	}
	c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), C: r.Op, Loc: loc})
}

// storeRef compiles the destination of an Assign: the stored value is
// already on the stack; the index expression (if any) evaluates after it,
// exactly like the walker (Src first, then Dst.Index, then the store).
func (c *compiler) storeRef(r *ir.Ref, loc ir.Loc) {
	global, operand, ok := c.resolve(r.Var)
	if !ok {
		c.panicUnbound(r.Var, loc)
		c.pop(1)
		return
	}
	if r.Index == nil {
		op := OpStoreL
		if global {
			op = OpStoreG
		}
		c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), C: r.Op, Loc: loc})
		c.pop(1)
		return
	}
	c.expr(r.Index, loc)
	op := OpStoreLI
	if global {
		op = OpStoreGI
	}
	c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), C: r.Op, Loc: loc})
	c.pop(2)
}

// call compiles argument evaluation plus the call/spawn terminator. When a
// static fault is found mid-argument-list (arity mismatch, non-variable
// by-ref argument, unbound by-ref base), it emits OpPanic at the walker's
// fault point and abandons the rest of the call; the depth bookkeeping is
// restored as if the expression had produced its value, keeping the linear
// tracking consistent for the (unreachable) code that follows.
func (c *compiler) call(n *ir.CallExpr, loc ir.Loc, stmtPos bool) {
	d0 := c.d
	callee := n.Callee
	fnIdx := int32(callee.ID)
	fault := func(in Instr) {
		c.emit(in)
		c.d = d0
		if !stmtPos {
			c.push(1)
		}
	}
	if len(n.Args) != len(callee.Params) {
		fault(Instr{Op: OpPanic, B: int32(PanicArity),
			A: fnIdx, C: int32(len(n.Args)), Loc: loc})
		return
	}
	for i, a := range n.Args {
		p := callee.Params[i]
		if p.ByValue {
			c.expr(a, loc)
			continue
		}
		r, ok := a.(*ir.Ref)
		if !ok {
			fault(Instr{Op: OpPanic, B: int32(PanicRefArg),
				A: fnIdx, C: int32(i), Loc: loc})
			return
		}
		global, operand, bound := c.resolve(r.Var)
		if !bound {
			fault(Instr{Op: OpPanic, B: int32(PanicUnbound),
				A: int32(r.Var.ID), C: c.fnIdx, Loc: loc})
			return
		}
		if r.Index == nil {
			op := OpRefL
			if global {
				op = OpRefG
			}
			c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), Loc: loc})
			c.push(1)
			continue
		}
		c.expr(r.Index, loc)
		op := OpRefLI
		if global {
			op = OpRefGI
		}
		c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), Loc: loc})
	}
	op := OpCall
	if stmtPos {
		op = OpCallVoid
	}
	c.emit(Instr{Op: op, A: fnIdx, Loc: loc})
	c.pop(int32(len(callee.Params)))
	if !stmtPos {
		c.push(1)
	}
}

// spawnArgs compiles a Spawn's argument evaluation (same argument protocol
// as call) followed by OpSpawn.
func (c *compiler) spawn(n *ir.Spawn) {
	d0 := c.d
	call := n.Call
	callee := call.Callee
	fnIdx := int32(callee.ID)
	if len(call.Args) != len(callee.Params) {
		c.emit(Instr{Op: OpPanic, B: int32(PanicArity),
			A: fnIdx, C: int32(len(call.Args)), Loc: n.Loc})
		c.d = d0
		return
	}
	for i, a := range call.Args {
		p := callee.Params[i]
		if p.ByValue {
			c.expr(a, n.Loc)
			continue
		}
		r, ok := a.(*ir.Ref)
		if !ok {
			c.emit(Instr{Op: OpPanic, B: int32(PanicRefArg),
				A: fnIdx, C: int32(i), Loc: n.Loc})
			c.d = d0
			return
		}
		global, operand, bound := c.resolve(r.Var)
		if !bound {
			c.emit(Instr{Op: OpPanic, B: int32(PanicUnbound),
				A: int32(r.Var.ID), C: c.fnIdx, Loc: n.Loc})
			c.d = d0
			return
		}
		if r.Index == nil {
			op := OpRefL
			if global {
				op = OpRefG
			}
			c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), Loc: n.Loc})
			c.push(1)
			continue
		}
		c.expr(r.Index, n.Loc)
		op := OpRefLI
		if global {
			op = OpRefGI
		}
		c.emit(Instr{Op: op, A: operand, B: int32(r.Var.ID), Loc: n.Loc})
	}
	c.emit(Instr{Op: OpSpawn, A: fnIdx, Loc: n.Loc})
	c.pop(int32(len(callee.Params)))
}

// ---------------------------------------------------------------------------
// Statements. Each compiles to net-zero stack effect. The first emitted
// instruction of each leaf statement gets FStep (the walker's Instrs++).

func (c *compiler) block(b *ir.BlockStmt) {
	for _, s := range b.List {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s ir.Stmt) {
	start := int32(len(c.code))
	switch n := s.(type) {
	case *ir.Assign:
		c.expr(n.Src, n.Loc)
		c.storeRef(n.Dst, n.Loc)
		c.step(start)
	case *ir.If:
		c.expr(n.Cond, n.Loc)
		c.step(start)
		br := c.emit(Instr{Op: OpBr, A: int32(n.Region.ID), Loc: n.Loc})
		c.pop(1)
		c.block(n.Then)
		if n.Else != nil {
			j := c.emit(Instr{Op: OpJmp, Loc: n.Loc})
			c.code[br].B = int32(len(c.code))
			c.block(n.Else)
			c.code[j].A = int32(len(c.code))
		} else {
			c.code[br].B = int32(len(c.code))
		}
		c.emit(Instr{Op: OpExitBr, A: int32(n.Region.ID), Loc: n.Loc})
	case *ir.For:
		c.forStmt(n)
	case *ir.While:
		c.whileStmt(n)
	case *ir.CallStmt:
		c.call(n.Call, n.Loc, true)
		c.step(start)
	case *ir.Return:
		hasVal := int32(0)
		if n.Val != nil {
			c.expr(n.Val, n.Loc)
			hasVal = 1
		}
		c.emit(Instr{Op: OpRet, A: hasVal, Loc: n.Loc})
		c.pop(hasVal)
		c.step(start)
	case *ir.Spawn:
		c.spawn(n)
		c.step(start)
	case *ir.Sync:
		c.emit(Instr{Op: OpSyncT, Loc: n.Loc})
		c.step(start)
	case *ir.LockRegion:
		c.emit(Instr{Op: OpLock, A: int32(n.MutexID), Loc: n.Loc})
		c.step(start)
		c.block(n.Body)
		c.emit(Instr{Op: OpUnlock, A: int32(n.MutexID), Loc: n.Loc})
	case *ir.Free:
		_, slot, ok := c.resolve(n.Var)
		switch {
		case n.Var.Kind == ir.KGlobal || !ok:
			// Globals are never frame-bound, so the walker reports them
			// unbound too.
			c.emit(Instr{Op: OpPanic, B: int32(PanicFreeUnbound),
				A: int32(n.Var.ID), Loc: n.Loc})
		case !n.Var.Heap:
			c.emit(Instr{Op: OpPanic, B: int32(PanicFreeNonHeap),
				A: int32(n.Var.ID), Loc: n.Loc})
		default:
			c.emit(Instr{Op: OpFreeH, A: slot, B: int32(n.Var.ID), Loc: n.Loc})
		}
		c.step(start)
	case *ir.BlockStmt:
		c.block(n) // no step: nested blocks are not leaf statements
	default:
		panic(fmt.Sprintf("bytecode: unknown statement %T", s))
	}
}

// forStmt compiles a counted loop. Layout:
//
//	ForEnter             region entry, induction-variable resolution
//	<From>* ForInit      init store, loop-frame push (FStep on first From op)
//	head: LoopHead       iteration event
//	<To>* ForTest  ->exit  test load + compare (FStep on first To op)
//	<body>
//	<Step>* ForInc ->head  increment load+store (FStep on first Step op)
//	exit: LoopExit       loop-frame pop, region exit
func (c *compiler) forStmt(n *ir.For) {
	region := int32(n.Region.ID)
	global, operand, ok := c.resolve(n.IndVar)
	fe := Instr{Op: OpForEnter, A: region, B: operand, Loc: n.Loc}
	switch {
	case !ok:
		fe.D = 2
		fe.B = int32(n.IndVar.ID)
		fe.C = c.fnIdx
	case global:
		fe.D = 1
	}
	c.emit(fe)
	fs := int32(len(c.code))
	c.expr(n.From, n.Loc)
	c.step(fs)
	c.emit(Instr{Op: OpForInit, A: int32(n.IndVar.ID), B: region, Loc: n.Loc})
	c.pop(1)
	head := int32(len(c.code))
	c.emit(Instr{Op: OpLoopHead, A: region, Loc: n.Loc})
	ts := int32(len(c.code))
	c.expr(n.To, n.Loc)
	c.step(ts)
	test := c.emit(Instr{Op: OpForTest, A: int32(n.IndVar.ID), B: region, Loc: n.Loc})
	c.pop(1)
	c.block(n.Body)
	ss := int32(len(c.code))
	c.expr(n.Step, n.Loc)
	c.step(ss)
	c.emit(Instr{Op: OpForInc, A: int32(n.IndVar.ID), B: region, C: head, Loc: n.Loc})
	c.pop(1)
	c.code[test].C = int32(len(c.code))
	c.emit(Instr{Op: OpLoopExit, A: region, Loc: n.Loc})
}

func (c *compiler) whileStmt(n *ir.While) {
	region := int32(n.Region.ID)
	c.emit(Instr{Op: OpWhileEnter, A: region, Loc: n.Loc})
	head := int32(len(c.code))
	c.emit(Instr{Op: OpLoopHead, A: region, Loc: n.Loc})
	cs := int32(len(c.code))
	c.expr(n.Cond, n.Loc)
	c.step(cs)
	test := c.emit(Instr{Op: OpWhileTest, B: region, Loc: n.Loc})
	c.pop(1)
	c.block(n.Body)
	c.emit(Instr{Op: OpWhileNext, C: head, Loc: n.Loc})
	c.code[test].C = int32(len(c.code))
	c.emit(Instr{Op: OpLoopExit, A: region, Loc: n.Loc})
}
