package interp

import (
	"discopop/internal/bytecode"
	"discopop/internal/ir"
)

// This file is the bytecode execution engine: a direct-dispatch loop over
// the flat instruction stream produced by internal/bytecode. It is the
// default engine behind Run (the tree walker remains available via
// WithTreeWalk as the semantic reference) and reproduces the walker's
// observable behavior exactly: the same tracer events in the same order,
// the same Instrs/Loads/Stores counts, the same yield points (so
// multi-threaded schedules match statement for statement), and the same
// runtime-error panics. The registry-wide differential tests in
// vm_diff_test.go enforce this bit for bit.
//
// The split between packages breaks what would otherwise be an import
// cycle: internal/bytecode knows only ir (compiler, ISA, program, cache),
// while the dispatch loop lives here because it shares the interpreter's
// threading, memory, and tracing machinery.

// vmCtrl is one entry of a thread's control stack: the currently open
// loop, branch, or lock regions of the running function. Return-unwinding
// pops it innermost-first, emitting the same ExitRegion/Unlock events the
// walker's call-stack unwind produces.
type vmCtrl struct {
	kind   uint8
	region *ir.Region
	start  int64 // Instrs at region entry
	iters  int64
	ivAddr uint64 // induction-variable address (loops)
	mutex  int32
}

const (
	ctrlLoop uint8 = iota
	ctrlBranch
	ctrlLock
)

// vmCall runs function fi on thread t: binds the frame (parameters from
// argv if non-nil, otherwise from the value stack), executes the body, and
// unbinds. It mirrors callFunc exactly, including the event order
// (EnterFunc, per-parameter BindVar+Store, per-local BindVar, body,
// FreeVar in reverse bind order, ExitFunc).
func (it *Interp) vmCall(t *thread, fi int32, argv []argVal, callLoc ir.Loc) float64 {
	f := &it.prog.Funcs[fi]
	fn := it.mod.Funcs[fi]
	if f.Entry < 0 {
		it.panicf("call to undefined function %s", fn.Name)
	}
	it.checkBudget(callLoc)
	if it.tracer != nil {
		it.evEnterFunc(fn, callLoc, t.id)
	}
	startInstrs := it.Instrs
	spSave := t.sp
	slotBase := len(t.slots)
	if n := slotBase + int(f.NSlots); n <= cap(t.slots) {
		t.slots = t.slots[:n]
	} else {
		t.slots = append(t.slots, make([]uint64, n-slotBase)...)
	}
	k := 0
	if argv == nil {
		k = t.vsp - int(f.ArgWords)
	}
	for i, p := range fn.Params {
		if p.ByValue {
			addr := it.stackAlloc(t, 1)
			t.slots[slotBase+i] = addr
			if it.tracer != nil {
				it.evBindVar(p, addr, 1, t.id)
			}
			var v float64
			if argv != nil {
				v = argv[i].val
			} else {
				v = t.vstack[k]
				k++
			}
			it.store(t, addr, v, fn.Loc, p, p.ParamOp)
			continue
		}
		if argv != nil {
			t.slots[slotBase+i] = argv[i].base
		} else {
			t.slots[slotBase+i] = uint64(t.vstack[k])
			k++
		}
	}
	if argv == nil {
		t.vsp -= int(f.ArgWords)
	}
	for j, v := range fn.Locals {
		slot := slotBase + len(fn.Params) + j
		if v.Heap {
			base := it.heapAlloc(v.Elems)
			t.slots[slot] = base
			if it.tracer != nil {
				it.evBindVar(v, base, v.Elems, t.id)
			}
			continue
		}
		addr := it.stackAlloc(t, v.Elems)
		t.slots[slot] = addr
		if it.tracer != nil {
			it.evBindVar(v, addr, v.Elems, t.id)
		}
	}
	ret := it.vmLoop(t, f, slotBase)
	// Frame exit: reverse bind order — locals (reversed), then by-value
	// parameters (reversed), matching the walker's bound list.
	if it.tracer != nil {
		for j := len(fn.Locals) - 1; j >= 0; j-- {
			v := fn.Locals[j]
			it.evFreeVar(v, t.slots[slotBase+len(fn.Params)+j], v.Elems, t.id)
		}
		for i := len(fn.Params) - 1; i >= 0; i-- {
			if p := fn.Params[i]; p.ByValue {
				it.evFreeVar(p, t.slots[slotBase+i], 1, t.id)
			}
		}
	}
	t.slots = t.slots[:slotBase]
	t.sp = spSave
	if it.tracer != nil {
		it.evExitFunc(fn, it.Instrs-startInstrs, t.id)
	}
	return ret
}

// vmLoop is the dispatch loop for one function activation. Hot state (the
// code and value stacks, the frame slot window) is cached in locals;
// anything a nested call may reallocate is reloaded after the call
// returns.
func (it *Interp) vmLoop(t *thread, f *bytecode.FuncInfo, slotBase int) float64 {
	if need := t.vsp + int(f.MaxStack); need > len(t.vstack) {
		ns := make([]float64, need+64)
		copy(ns, t.vstack)
		t.vstack = ns
	}
	code := it.prog.Code
	vars := it.mod.Vars
	stack := t.vstack
	sp := t.vsp
	slots := t.slots[slotBase:]
	ctrlBase := len(t.ctrl)
	pc := int(f.Entry)
	// Hot-path state, stable for the whole run: the address space pointer
	// and whether the run is traced (bt). A traced access keeps the inlined
	// TryLoad/TryStore fast path and appends an event with the compile-time
	// packed sink operand; traced or not, it falls back to the load/store
	// slow path when the inline attempt declines (page materialization,
	// range panics).
	space := it.space
	bt := it.tracer != nil
	tid := t.id
	var tr1, tr2 []uint64
	var thr uint64
	if bt {
		ti := it.prog.Trace()
		tr1, tr2 = ti.S1, ti.S2
		thr = bytecode.SinkThread(tid)
	}
	for {
		in := &code[pc]
		if in.Fl&bytecode.FStep != 0 {
			it.Instrs++
		}
		switch in.Op {
		case bytecode.OpPushC:
			stack[sp] = in.Val
			sp++
		case bytecode.OpLoadL:
			addr := slots[in.A]
			v, ok := space.TryLoad(addr)
			if !ok {
				v = it.load(t, addr, in.Loc, vars[in.B], in.C)
			} else {
				it.Loads++
				if bt {
					it.emit(addr, tr1[pc]|thr, in.Loc, in.C, in.B)
				}
			}
			stack[sp] = v
			sp++
		case bytecode.OpLoadG:
			addr := uint64(in.A)
			v, ok := space.TryLoad(addr)
			if !ok {
				v = it.load(t, addr, in.Loc, vars[in.B], in.C)
			} else {
				it.Loads++
				if bt {
					it.emit(addr, tr1[pc]|thr, in.Loc, in.C, in.B)
				}
			}
			stack[sp] = v
			sp++
		case bytecode.OpLoadLI, bytecode.OpLoadGI:
			v := vars[in.B]
			idx := int64(stack[sp-1])
			if idx < 0 || idx >= int64(v.Elems) {
				it.panicf("index %d out of range for %s[%d] at %s", idx, v.Name, v.Elems, in.Loc)
			}
			base := uint64(in.A)
			if in.Op == bytecode.OpLoadLI {
				base = slots[in.A]
			}
			addr := base + uint64(idx)
			val, ok := space.TryLoad(addr)
			if !ok {
				val = it.load(t, addr, in.Loc, v, in.C)
			} else {
				it.Loads++
				if bt {
					it.emit(addr, tr1[pc]|thr, in.Loc, in.C, in.B)
				}
			}
			stack[sp-1] = val
		case bytecode.OpStoreL:
			sp--
			addr := slots[in.A]
			if !space.TryStore(addr, stack[sp]) {
				it.store(t, addr, stack[sp], in.Loc, vars[in.B], in.C)
			} else {
				it.Stores++
				if bt {
					it.emit(addr, tr1[pc]|thr|evStoreBit, in.Loc, in.C, in.B)
				}
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpStoreG:
			sp--
			addr := uint64(in.A)
			if !space.TryStore(addr, stack[sp]) {
				it.store(t, addr, stack[sp], in.Loc, vars[in.B], in.C)
			} else {
				it.Stores++
				if bt {
					it.emit(addr, tr1[pc]|thr|evStoreBit, in.Loc, in.C, in.B)
				}
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpStoreLI, bytecode.OpStoreGI:
			v := vars[in.B]
			idx := int64(stack[sp-1])
			if idx < 0 || idx >= int64(v.Elems) {
				it.panicf("index %d out of range for %s[%d] at %s", idx, v.Name, v.Elems, in.Loc)
			}
			base := uint64(in.A)
			if in.Op == bytecode.OpStoreLI {
				base = slots[in.A]
			}
			sp -= 2
			addr := base + uint64(idx)
			if !space.TryStore(addr, stack[sp]) {
				it.store(t, addr, stack[sp], in.Loc, v, in.C)
			} else {
				it.Stores++
				if bt {
					it.emit(addr, tr1[pc]|thr|evStoreBit, in.Loc, in.C, in.B)
				}
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpBin:
			sp--
			v, ok := binHot(ir.BinOp(in.A), stack[sp-1], stack[sp])
			if !ok {
				v = binEval(ir.BinOp(in.A), stack[sp-1], stack[sp])
			}
			stack[sp-1] = v
		case bytecode.OpUn:
			stack[sp-1] = unEval(ir.UnOp(in.A), stack[sp-1])
		case bytecode.OpAndSC:
			if stack[sp-1] == 0 {
				pc = int(in.A)
				continue
			}
			sp--
		case bytecode.OpOrSC:
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
				pc = int(in.A)
				continue
			}
			sp--
		case bytecode.OpNorm:
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case bytecode.OpRand:
			stack[sp] = it.rand()
			sp++
		case bytecode.OpRefL:
			stack[sp] = float64(slots[in.A])
			sp++
		case bytecode.OpRefG:
			stack[sp] = float64(uint64(in.A))
			sp++
		case bytecode.OpRefLI, bytecode.OpRefGI:
			v := vars[in.B]
			off := int64(stack[sp-1])
			if off < 0 || off > int64(v.Elems) {
				it.panicf("by-ref offset %d out of range for %s", off, v.Name)
			}
			base := uint64(in.A)
			if in.Op == bytecode.OpRefLI {
				base = slots[in.A]
			}
			stack[sp-1] = float64(base + uint64(off))
		case bytecode.OpCall:
			t.vsp = sp
			r := it.vmCall(t, in.A, nil, in.Loc)
			stack = t.vstack
			sp = t.vsp
			slots = t.slots[slotBase:]
			stack[sp] = r
			sp++
		case bytecode.OpCallVoid:
			t.vsp = sp
			it.vmCall(t, in.A, nil, in.Loc)
			stack = t.vstack
			sp = t.vsp
			slots = t.slots[slotBase:]
			it.yieldPoint(t)
		case bytecode.OpRet:
			var r float64
			if in.A != 0 {
				sp--
				r = stack[sp]
			}
			t.vsp = sp
			it.yieldPoint(t)
			it.unwindCtrl(t, ctrlBase)
			return r
		case bytecode.OpJmp:
			pc = int(in.A)
			continue
		case bytecode.OpBr:
			sp--
			cond := stack[sp] != 0
			it.yieldPoint(t)
			r := it.mod.Regions[in.A]
			if it.tracer != nil {
				it.evEnterRegion(r, tid)
			}
			t.ctrl = append(t.ctrl, vmCtrl{kind: ctrlBranch, region: r, start: it.Instrs})
			if !cond {
				pc = int(in.B)
				continue
			}
		case bytecode.OpExitBr:
			c := t.ctrl[len(t.ctrl)-1]
			t.ctrl = t.ctrl[:len(t.ctrl)-1]
			if it.tracer != nil {
				it.evExitRegion(c.region, 0, it.Instrs-c.start, tid)
			}
		case bytecode.OpForEnter:
			r := it.mod.Regions[in.A]
			if it.tracer != nil {
				it.evEnterRegion(r, tid)
			}
			start := it.Instrs
			var ivAddr uint64
			switch in.D {
			case 0:
				ivAddr = slots[in.B]
			case 1:
				ivAddr = uint64(in.B)
			default:
				it.panicf("unbound variable %s in %s", vars[in.B].Name, it.mod.Funcs[in.C].Name)
			}
			t.ctrl = append(t.ctrl, vmCtrl{kind: ctrlLoop, region: r, start: start, ivAddr: ivAddr})
		case bytecode.OpForInit:
			c := &t.ctrl[len(t.ctrl)-1]
			sp--
			it.store(t, c.ivAddr, stack[sp], in.Loc, vars[in.A], -4*in.B-1)
		case bytecode.OpLoopHead:
			c := &t.ctrl[len(t.ctrl)-1]
			if it.tracer != nil {
				it.evLoopIter(c.region, c.iters, tid)
			}
		case bytecode.OpForTest:
			c := &t.ctrl[len(t.ctrl)-1]
			sp--
			to := stack[sp]
			cur, ok := space.TryLoad(c.ivAddr)
			if !ok {
				cur = it.load(t, c.ivAddr, in.Loc, vars[in.A], -4*in.B-2)
			} else {
				it.Loads++
				if bt {
					it.emit(c.ivAddr, tr1[pc]|thr, in.Loc, -4*in.B-2, in.A)
				}
			}
			if !(cur < to) {
				pc = int(in.C)
				continue
			}
			if c.iters > maxIters {
				it.panicf("loop at %s exceeded max iterations", in.Loc)
			}
			if it.maxInstrs > 0 {
				it.checkBudget(in.Loc)
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpForInc:
			c := &t.ctrl[len(t.ctrl)-1]
			sp--
			cur, ok := space.TryLoad(c.ivAddr)
			if !ok {
				cur = it.load(t, c.ivAddr, in.Loc, vars[in.A], -4*in.B-3)
			} else {
				it.Loads++
				if bt {
					it.emit(c.ivAddr, tr1[pc]|thr, in.Loc, -4*in.B-3, in.A)
				}
			}
			next := cur + stack[sp]
			if !space.TryStore(c.ivAddr, next) {
				it.store(t, c.ivAddr, next, in.Loc, vars[in.A], -4*in.B-4)
			} else {
				it.Stores++
				if bt {
					it.emit(c.ivAddr, tr2[pc]|thr|evStoreBit, in.Loc, -4*in.B-4, in.A)
				}
			}
			c.iters++
			pc = int(in.C)
			continue
		case bytecode.OpLoopExit:
			c := t.ctrl[len(t.ctrl)-1]
			t.ctrl = t.ctrl[:len(t.ctrl)-1]
			if it.tracer != nil {
				it.evExitRegion(c.region, c.iters, it.Instrs-c.start, tid)
			}
		case bytecode.OpWhileEnter:
			r := it.mod.Regions[in.A]
			if it.tracer != nil {
				it.evEnterRegion(r, tid)
			}
			t.ctrl = append(t.ctrl, vmCtrl{kind: ctrlLoop, region: r, start: it.Instrs})
		case bytecode.OpWhileTest:
			c := &t.ctrl[len(t.ctrl)-1]
			sp--
			if stack[sp] == 0 {
				pc = int(in.C)
				continue
			}
			if c.iters > maxIters {
				it.panicf("loop at %s exceeded max iterations", in.Loc)
			}
			if it.maxInstrs > 0 {
				it.checkBudget(in.Loc)
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpWhileNext:
			t.ctrl[len(t.ctrl)-1].iters++
			pc = int(in.C)
			continue
		case bytecode.OpLock:
			mid := int(in.A)
			it.block(t, func() bool { return it.mutexes[mid] == 0 })
			it.mutexes[mid] = t.id + 1
			if it.tracer != nil {
				it.evLock(mid, tid)
			}
			t.ctrl = append(t.ctrl, vmCtrl{kind: ctrlLock, mutex: in.A})
		case bytecode.OpUnlock:
			t.ctrl = t.ctrl[:len(t.ctrl)-1]
			it.mutexes[int(in.A)] = 0
			if it.tracer != nil {
				it.evUnlock(int(in.A), tid)
			}
		case bytecode.OpSpawn:
			fn := it.mod.Funcs[in.A]
			sp -= len(fn.Params)
			args := make([]argVal, len(fn.Params))
			for i, p := range fn.Params {
				if w := stack[sp+i]; p.ByValue {
					args[i] = argVal{val: w}
				} else {
					args[i] = argVal{base: uint64(w), byRef: true}
				}
			}
			t.vsp = sp
			it.spawnThread(t, fn, args)
			it.yieldPoint(t)
		case bytecode.OpSyncT:
			it.block(t, func() bool { return t.children == 0 })
		case bytecode.OpFreeH:
			v := vars[in.B]
			base := slots[in.A]
			it.heapFree(base, v.Elems)
			if it.tracer != nil {
				it.evFreeVar(v, base, v.Elems, tid)
			}
			it.yieldPoint(t)
		case bytecode.OpPanic:
			it.vmPanic(in)
		case bytecode.OpEnd:
			t.vsp = sp
			return 0

		// Superinstructions.
		case bytecode.OpForHeadC, bytecode.OpForHeadL, bytecode.OpForHeadG:
			c := &t.ctrl[len(t.ctrl)-1]
			if it.tracer != nil {
				it.evLoopIter(c.region, c.iters, tid)
			}
			it.Instrs++ // the fused bound-eval op's step (walker: after LoopIter)
			to := in.Val
			switch in.Op {
			case bytecode.OpForHeadL, bytecode.OpForHeadG:
				addr := uint64(in.D)
				if in.Op == bytecode.OpForHeadL {
					addr = slots[in.D]
				}
				var ok bool
				to, ok = space.TryLoad(addr)
				if !ok {
					to = it.load(t, addr, in.Loc, vars[in.E], in.F)
				} else {
					it.Loads++
					if bt {
						it.emit(addr, tr1[pc]|thr, in.Loc, in.F, in.E)
					}
				}
			}
			cur, ok := space.TryLoad(c.ivAddr)
			if !ok {
				cur = it.load(t, c.ivAddr, in.Loc, vars[in.A], -4*in.B-2)
			} else {
				it.Loads++
				if bt {
					it.emit(c.ivAddr, tr2[pc]|thr, in.Loc, -4*in.B-2, in.A)
				}
			}
			if !(cur < to) {
				pc = int(in.C)
				continue
			}
			if c.iters > maxIters {
				it.panicf("loop at %s exceeded max iterations", in.Loc)
			}
			if it.maxInstrs > 0 {
				it.checkBudget(in.Loc)
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpForIncC:
			c := &t.ctrl[len(t.ctrl)-1]
			cur, ok := space.TryLoad(c.ivAddr)
			if !ok {
				cur = it.load(t, c.ivAddr, in.Loc, vars[in.A], -4*in.B-3)
			} else {
				it.Loads++
				if bt {
					it.emit(c.ivAddr, tr1[pc]|thr, in.Loc, -4*in.B-3, in.A)
				}
			}
			next := cur + in.Val
			if !space.TryStore(c.ivAddr, next) {
				it.store(t, c.ivAddr, next, in.Loc, vars[in.A], -4*in.B-4)
			} else {
				it.Stores++
				if bt {
					it.emit(c.ivAddr, tr2[pc]|thr|evStoreBit, in.Loc, -4*in.B-4, in.A)
				}
			}
			c.iters++
			pc = int(in.C)
			continue
		case bytecode.OpBinC:
			v, ok := binHot(ir.BinOp(in.A), stack[sp-1], in.Val)
			if !ok {
				v = binEval(ir.BinOp(in.A), stack[sp-1], in.Val)
			}
			stack[sp-1] = v
		case bytecode.OpBinStoreL, bytecode.OpBinStoreG:
			sp -= 2
			v, ok := binHot(ir.BinOp(in.D), stack[sp], stack[sp+1])
			if !ok {
				v = binEval(ir.BinOp(in.D), stack[sp], stack[sp+1])
			}
			addr := uint64(in.A)
			if in.Op == bytecode.OpBinStoreL {
				addr = slots[in.A]
			}
			if !space.TryStore(addr, v) {
				it.store(t, addr, v, in.Loc, vars[in.B], in.C)
			} else {
				it.Stores++
				if bt {
					it.emit(addr, tr1[pc]|thr|evStoreBit, in.Loc, in.C, in.B)
				}
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpStoreCL, bytecode.OpStoreCG:
			addr := uint64(in.A)
			if in.Op == bytecode.OpStoreCL {
				addr = slots[in.A]
			}
			if !space.TryStore(addr, in.Val) {
				it.store(t, addr, in.Val, in.Loc, vars[in.B], in.C)
			} else {
				it.Stores++
				if bt {
					it.emit(addr, tr1[pc]|thr|evStoreBit, in.Loc, in.C, in.B)
				}
			}
			if it.mt {
				it.yieldPoint(t)
			}
		case bytecode.OpLoadLL:
			a1, a2 := slots[in.A], slots[in.D]
			v1, ok1 := space.TryLoad(a1)
			if !ok1 {
				v1 = it.load(t, a1, in.Loc, vars[in.B], in.C)
			} else {
				it.Loads++
				if bt {
					it.emit(a1, tr1[pc]|thr, in.Loc, in.C, in.B)
				}
			}
			v2, ok2 := space.TryLoad(a2)
			if !ok2 {
				v2 = it.load(t, a2, in.Loc, vars[in.E], in.F)
			} else {
				it.Loads++
				if bt {
					it.emit(a2, tr2[pc]|thr, in.Loc, in.F, in.E)
				}
			}
			stack[sp] = v1
			stack[sp+1] = v2
			sp += 2
		case bytecode.OpIdxLoadL, bytecode.OpIdxLoadG:
			ia := slots[in.A]
			iv, iok := space.TryLoad(ia)
			if !iok {
				iv = it.load(t, ia, in.Loc, vars[in.B], in.C)
			} else {
				it.Loads++
				if bt {
					it.emit(ia, tr1[pc]|thr, in.Loc, in.C, in.B)
				}
			}
			idx := int64(iv)
			v := vars[in.E]
			if idx < 0 || idx >= int64(v.Elems) {
				it.panicf("index %d out of range for %s[%d] at %s", idx, v.Name, v.Elems, in.Loc)
			}
			base := uint64(in.D)
			if in.Op == bytecode.OpIdxLoadL {
				base = slots[in.D]
			}
			addr := base + uint64(idx)
			val, ok := space.TryLoad(addr)
			if !ok {
				val = it.load(t, addr, in.Loc, v, in.F)
			} else {
				it.Loads++
				if bt {
					it.emit(addr, tr2[pc]|thr, in.Loc, in.F, in.E)
				}
			}
			stack[sp] = val
			sp++
		case bytecode.OpIdxStoreL, bytecode.OpIdxStoreG:
			ia := slots[in.A]
			iv, iok := space.TryLoad(ia)
			if !iok {
				iv = it.load(t, ia, in.Loc, vars[in.B], in.C)
			} else {
				it.Loads++
				if bt {
					it.emit(ia, tr1[pc]|thr, in.Loc, in.C, in.B)
				}
			}
			idx := int64(iv)
			v := vars[in.E]
			if idx < 0 || idx >= int64(v.Elems) {
				it.panicf("index %d out of range for %s[%d] at %s", idx, v.Name, v.Elems, in.Loc)
			}
			base := uint64(in.D)
			if in.Op == bytecode.OpIdxStoreL {
				base = slots[in.D]
			}
			sp--
			addr := base + uint64(idx)
			if !space.TryStore(addr, stack[sp]) {
				it.store(t, addr, stack[sp], in.Loc, v, in.F)
			} else {
				it.Stores++
				if bt {
					it.emit(addr, tr2[pc]|thr|evStoreBit, in.Loc, in.F, in.E)
				}
			}
			if it.mt {
				it.yieldPoint(t)
			}
		default:
			it.panicf("invalid opcode %v at pc %d", in.Op, pc)
		}
		pc++
	}
}

// unwindCtrl pops every control region opened inside the current function
// activation, emitting the exit events the walker's return-unwind emits.
func (it *Interp) unwindCtrl(t *thread, base int) {
	for len(t.ctrl) > base {
		c := t.ctrl[len(t.ctrl)-1]
		t.ctrl = t.ctrl[:len(t.ctrl)-1]
		switch c.kind {
		case ctrlLoop:
			if it.tracer != nil {
				it.evExitRegion(c.region, c.iters, it.Instrs-c.start, t.id)
			}
		case ctrlBranch:
			if it.tracer != nil {
				it.evExitRegion(c.region, 0, it.Instrs-c.start, t.id)
			}
		case ctrlLock:
			it.mutexes[int(c.mutex)] = 0
			if it.tracer != nil {
				it.evUnlock(int(c.mutex), t.id)
			}
		}
	}
}

// vmPanic raises the walker's runtime-error message for a statically
// detected fault (see bytecode.PanicKind).
func (it *Interp) vmPanic(in *bytecode.Instr) {
	switch bytecode.PanicKind(in.B) {
	case bytecode.PanicUnbound:
		it.panicf("unbound variable %s in %s", it.mod.Vars[in.A].Name, it.mod.Funcs[in.C].Name)
	case bytecode.PanicArity:
		f := it.mod.Funcs[in.A]
		it.panicf("call to %s with %d args, want %d", f.Name, in.C, len(f.Params))
	case bytecode.PanicRefArg:
		f := it.mod.Funcs[in.A]
		it.panicf("by-reference parameter %s of %s needs a variable argument", f.Params[in.C].Name, f.Name)
	case bytecode.PanicFreeUnbound:
		it.panicf("free of unbound variable %s", it.mod.Vars[in.A].Name)
	case bytecode.PanicFreeNonHeap:
		it.panicf("free of non-heap variable %s", it.mod.Vars[in.A].Name)
	}
	it.panicf("invalid panic op")
}
