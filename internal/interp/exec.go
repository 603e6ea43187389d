package interp

import (
	"discopop/internal/ir"
	"discopop/internal/mem"
)

// This file executes statements, maintaining the region event protocol:
// EnterRegion/ExitRegion around loops and branches, LoopIter per iteration,
// EnterFunc/ExitFunc around calls, and BindVar/FreeVar at variable lifetime
// boundaries (allocation on frame entry, death on frame exit or Free).

// evalArgs evaluates call arguments in the caller's context.
func (it *Interp) evalArgs(t *thread, call *ir.CallExpr, loc ir.Loc) []argVal {
	callee := call.Callee
	if len(call.Args) != len(callee.Params) {
		it.panicf("call to %s with %d args, want %d", callee.Name, len(call.Args), len(callee.Params))
	}
	args := make([]argVal, len(call.Args))
	for i, a := range call.Args {
		p := callee.Params[i]
		if p.ByValue {
			args[i] = argVal{val: it.eval(t, a, loc)}
			continue
		}
		r, ok := a.(*ir.Ref)
		if !ok {
			it.panicf("by-reference parameter %s of %s needs a variable argument", p.Name, callee.Name)
		}
		base := it.addrOf(t, r.Var)
		elems := r.Var.Elems
		if r.Index != nil {
			off := int64(it.eval(t, r.Index, loc))
			if off < 0 || off > int64(r.Var.Elems) {
				it.panicf("by-ref offset %d out of range for %s", off, r.Var.Name)
			}
			base += uint64(off)
			elems -= int(off)
		}
		args[i] = argVal{base: base, byRef: true, elems: elems}
	}
	return args
}

// callFunc pushes a frame, binds parameters and locals, executes the body,
// and returns the function's return value.
// checkBudget aborts the run (as a runtime error) once the configured
// instruction budget is exhausted. It sits on loop back-edges and
// function entries — the only places an execution can grow without
// bound — so straight-line code never pays for it.
func (it *Interp) checkBudget(loc ir.Loc) {
	if it.maxInstrs > 0 && it.Instrs > it.maxInstrs {
		it.panicf("instruction budget of %d exceeded at %s", it.maxInstrs, loc)
	}
}

func (it *Interp) callFunc(t *thread, fn *ir.Func, args []argVal, callLoc ir.Loc) float64 {
	if fn.Body == nil {
		it.panicf("call to undefined function %s", fn.Name)
	}
	it.checkBudget(callLoc)
	if it.tracer != nil {
		it.evEnterFunc(fn, callLoc, t.id)
	}
	startInstrs := it.Instrs
	fr := &frame{fn: fn, env: make(map[*ir.Var]uint64, len(fn.Params)+len(fn.Locals)), spSave: t.sp}
	// Bind parameters.
	for i, p := range fn.Params {
		if p.ByValue {
			addr := it.stackAlloc(t, 1)
			fr.env[p] = addr
			fr.bound = append(fr.bound, p)
			t.frames = append(t.frames, fr)
			if it.tracer != nil {
				it.evBindVar(p, addr, 1, t.id)
			}
			it.store(t, addr, args[i].val, fn.Loc, p, p.ParamOp)
			t.frames = t.frames[:len(t.frames)-1]
		} else {
			fr.env[p] = args[i].base
		}
	}
	// Bind every local (LLVM-alloca style: whole frame at entry).
	for _, v := range fn.Locals {
		if v.Heap {
			base := it.heapAlloc(v.Elems)
			fr.env[v] = base
			fr.bound = append(fr.bound, v)
			if it.tracer != nil {
				it.evBindVar(v, base, v.Elems, t.id)
			}
			continue
		}
		addr := it.stackAlloc(t, v.Elems)
		fr.env[v] = addr
		fr.bound = append(fr.bound, v)
		if it.tracer != nil {
			it.evBindVar(v, addr, v.Elems, t.id)
		}
	}
	t.frames = append(t.frames, fr)
	it.execBlock(t, fn.Body)
	// Frame exit: locals die (Section 2.3.5 variable lifetime analysis).
	if it.tracer != nil {
		for i := len(fr.bound) - 1; i >= 0; i-- {
			v := fr.bound[i]
			it.evFreeVar(v, fr.env[v], v.Elems, t.id)
		}
	}
	t.frames = t.frames[:len(t.frames)-1]
	t.sp = fr.spSave
	if it.tracer != nil {
		it.evExitFunc(fn, it.Instrs-startInstrs, t.id)
	}
	return fr.ret
}

func (it *Interp) stackAlloc(t *thread, n int) uint64 {
	addr := t.sp
	t.sp += uint64(n)
	if t.sp > t.stack+mem.StackElems {
		it.panicf("thread %d stack overflow", t.id)
	}
	return addr
}

// call evaluates a call expression in t.
func (it *Interp) call(t *thread, c *ir.CallExpr, loc ir.Loc) float64 {
	args := it.evalArgs(t, c, loc)
	return it.callFunc(t, c.Callee, args, loc)
}

// execBlock executes the statements of b. It returns true if a Return was
// executed (unwinding).
func (it *Interp) execBlock(t *thread, b *ir.BlockStmt) bool {
	for _, s := range b.List {
		if it.execStmt(t, s) {
			return true
		}
	}
	return false
}

// execStmt executes one statement, returning true on Return-unwind.
func (it *Interp) execStmt(t *thread, s ir.Stmt) bool {
	switch n := s.(type) {
	case *ir.Assign:
		it.Instrs++
		val := it.eval(t, n.Src, n.Loc)
		addr := it.elemAddr(t, n.Dst, n.Loc)
		it.store(t, addr, val, n.Loc, n.Dst.Var, n.Dst.Op)
		it.yieldPoint(t)
	case *ir.For:
		return it.execFor(t, n)
	case *ir.While:
		return it.execWhile(t, n)
	case *ir.If:
		it.Instrs++
		cond := it.eval(t, n.Cond, n.Loc) != 0
		it.yieldPoint(t)
		if it.tracer != nil {
			it.evEnterRegion(n.Region, t.id)
		}
		start := it.Instrs
		var ret bool
		if cond {
			ret = it.execBlock(t, n.Then)
		} else if n.Else != nil {
			ret = it.execBlock(t, n.Else)
		}
		if it.tracer != nil {
			it.evExitRegion(n.Region, 0, it.Instrs-start, t.id)
		}
		return ret
	case *ir.CallStmt:
		it.Instrs++
		it.call(t, n.Call, n.Loc)
		it.yieldPoint(t)
	case *ir.Return:
		it.Instrs++
		fr := t.top()
		if n.Val != nil {
			fr.ret = it.eval(t, n.Val, n.Loc)
		}
		fr.returned = true
		it.yieldPoint(t)
		return true
	case *ir.Spawn:
		it.Instrs++
		it.startSpawned(t, n.Call, n.Loc)
		it.yieldPoint(t)
	case *ir.Sync:
		it.Instrs++
		it.block(t, func() bool { return t.children == 0 })
	case *ir.LockRegion:
		it.Instrs++
		it.block(t, func() bool { return it.mutexes[n.MutexID] == 0 })
		it.mutexes[n.MutexID] = t.id + 1
		if it.tracer != nil {
			it.evLock(n.MutexID, t.id)
		}
		ret := it.execBlock(t, n.Body)
		it.mutexes[n.MutexID] = 0
		if it.tracer != nil {
			it.evUnlock(n.MutexID, t.id)
		}
		return ret
	case *ir.Free:
		it.Instrs++
		fr := t.top()
		base, ok := fr.env[n.Var]
		if !ok {
			it.panicf("free of unbound variable %s", n.Var.Name)
		}
		if !n.Var.Heap {
			it.panicf("free of non-heap variable %s", n.Var.Name)
		}
		it.heapFree(base, n.Var.Elems)
		if it.tracer != nil {
			it.evFreeVar(n.Var, base, n.Var.Elems, t.id)
		}
		it.yieldPoint(t)
	case *ir.BlockStmt:
		return it.execBlock(t, n)
	default:
		it.panicf("unknown statement %T", s)
	}
	return false
}

// execFor runs a counted loop. The iteration variable's initialization,
// test, and increment accesses are all attributed to the loop header line,
// matching the C idiom and Figure 2.1 (RAW/WAR on i at the header).
func (it *Interp) execFor(t *thread, n *ir.For) bool {
	if it.tracer != nil {
		it.evEnterRegion(n.Region, t.id)
	}
	startInstrs := it.Instrs
	iv := n.IndVar
	ivAddr := it.addrOf(t, iv)
	// Each of the header's four induction-variable operations (init store,
	// test load, increment load, increment store) is a distinct static
	// memory operation and gets its own ID, so the skip optimization
	// tracks them separately — merging them would hide the loop-carried
	// header dependences of Figure 2.1.
	base := -4*int32(n.Region.ID) - 1
	opInit, opTest, opIncL, opIncS := base, base-1, base-2, base-3
	it.Instrs++
	from := it.eval(t, n.From, n.Loc)
	it.store(t, ivAddr, from, n.Loc, iv, opInit)
	// The loop test for iteration k executes in iteration k's context, so
	// that a header read following the previous iteration's update forms a
	// loop-carried dependence (the RAW on i at the header of Figure 2.1).
	iters := int64(0)
	ret := false
	for {
		if it.tracer != nil {
			it.evLoopIter(n.Region, iters, t.id)
		}
		it.Instrs++
		to := it.eval(t, n.To, n.Loc)
		cur := it.load(t, ivAddr, n.Loc, iv, opTest)
		if !(cur < to) {
			break
		}
		if iters > maxIters {
			it.panicf("loop at %s exceeded max iterations", n.Loc)
		}
		it.checkBudget(n.Loc)
		it.yieldPoint(t)
		ret = it.execBlock(t, n.Body)
		if ret {
			break
		}
		// Increment: read + write of the iteration variable at the header,
		// still in the finishing iteration's context.
		it.Instrs++
		step := it.eval(t, n.Step, n.Loc)
		cur = it.load(t, ivAddr, n.Loc, iv, opIncL)
		it.store(t, ivAddr, cur+step, n.Loc, iv, opIncS)
		iters++
	}
	if it.tracer != nil {
		it.evExitRegion(n.Region, iters, it.Instrs-startInstrs, t.id)
	}
	return ret
}

func (it *Interp) execWhile(t *thread, n *ir.While) bool {
	if it.tracer != nil {
		it.evEnterRegion(n.Region, t.id)
	}
	startInstrs := it.Instrs
	iters := int64(0)
	ret := false
	for {
		if it.tracer != nil {
			it.evLoopIter(n.Region, iters, t.id)
		}
		it.Instrs++
		if it.eval(t, n.Cond, n.Loc) == 0 {
			break
		}
		if iters > maxIters {
			it.panicf("loop at %s exceeded max iterations", n.Loc)
		}
		it.checkBudget(n.Loc)
		it.yieldPoint(t)
		ret = it.execBlock(t, n.Body)
		if ret {
			break
		}
		iters++
	}
	if it.tracer != nil {
		it.evExitRegion(n.Region, iters, it.Instrs-startInstrs, t.id)
	}
	return ret
}
