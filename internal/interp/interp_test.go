package interp

import (
	"fmt"
	"strings"
	"testing"

	"discopop/internal/ir"
)

// evFunc adapts a function over single events to Tracer.
type evFunc func(m *ir.Module, ev *Ev)

func (f evFunc) ProcessBatch(m *ir.Module, evs []Ev) {
	for i := range evs {
		f(m, &evs[i])
	}
}

// run executes a module and returns the interpreter for state inspection.
func run(t *testing.T, m *ir.Module, tr Tracer) *Interp {
	t.Helper()
	it := New(m, tr)
	it.Run()
	return it
}

// resultOf builds a module whose main computes into global `out`.
func resultOf(t *testing.T, build func(b *ir.Builder, fb *ir.FuncBuilder, out *ir.Var)) float64 {
	t.Helper()
	b := ir.NewBuilder("t")
	out := b.Global("out", ir.F64)
	fb := b.Func("main")
	build(b, fb, out)
	m := b.Build(fb.Done())
	it := run(t, m, nil)
	return it.space.Load(it.globalBase[out])
}

func TestArithmetic(t *testing.T) {
	got := resultOf(t, func(b *ir.Builder, fb *ir.FuncBuilder, out *ir.Var) {
		fb.Set(out, ir.Add(ir.Mul(ir.CI(6), ir.CI(7)), ir.Div(ir.CI(10), ir.CI(4))))
	})
	if got != 44.5 {
		t.Fatalf("6*7 + 10/4 = %v, want 44.5", got)
	}
}

func TestIntegerOps(t *testing.T) {
	got := resultOf(t, func(b *ir.Builder, fb *ir.FuncBuilder, out *ir.Var) {
		// (0b1100 ^ 0b1010) | (1 << 4) = 0b0110 | 0b10000 = 22; 22 % 5 = 2.
		fb.Set(out, ir.Mod(ir.OrB(ir.Xor(ir.CI(12), ir.CI(10)), ir.Shl(ir.CI(1), ir.CI(4))), ir.CI(5)))
	})
	if got != 2 {
		t.Fatalf("bit ops = %v, want 2", got)
	}
}

func TestLoopSum(t *testing.T) {
	got := resultOf(t, func(b *ir.Builder, fb *ir.FuncBuilder, out *ir.Var) {
		fb.For("i", ir.CI(1), ir.CI(101), ir.CI(1), func(i *ir.Var) {
			fb.Set(out, ir.Add(ir.V(out), ir.V(i)))
		})
	})
	if got != 5050 {
		t.Fatalf("sum 1..100 = %v, want 5050", got)
	}
}

func TestWhileLoop(t *testing.T) {
	got := resultOf(t, func(b *ir.Builder, fb *ir.FuncBuilder, out *ir.Var) {
		k := fb.Local("k", ir.I64)
		fb.Set(k, ir.CI(10))
		fb.While(ir.Gt(ir.V(k), ir.CI(0)), func() {
			fb.Set(out, ir.Add(ir.V(out), ir.CI(1)))
			fb.Set(k, ir.Sub(ir.V(k), ir.CI(1)))
		})
	})
	if got != 10 {
		t.Fatalf("while iterations = %v, want 10", got)
	}
}

// TestMaxInstrsBudget pins the execution budget: a structurally tiny
// module with an effectively infinite loop must abort as a runtime error
// once the budget is exhausted, and the same budget must not trip a
// program that finishes under it.
func TestMaxInstrsBudget(t *testing.T) {
	build := func() *ir.Module {
		b := ir.NewBuilder("runaway")
		out := b.Global("out", ir.F64)
		fb := b.Func("main")
		fb.While(ir.Lt(ir.CI(0), ir.CI(1)), func() {
			fb.Set(out, ir.Add(ir.V(out), ir.CI(1)))
		})
		fb.Return(nil)
		return b.Build(fb.Done())
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("runaway loop must be stopped by the budget")
			}
			if !strings.Contains(fmt.Sprint(r), "instruction budget") {
				t.Fatalf("panic %v is not the budget error", r)
			}
		}()
		New(build(), nil, WithMaxInstrs(10_000)).Run()
	}()
	// A bounded program under the same budget runs to completion.
	b := ir.NewBuilder("bounded")
	out := b.Global("out", ir.F64)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(100), ir.CI(1), func(i *ir.Var) {
		fb.Set(out, ir.Add(ir.V(out), ir.V(i)))
	})
	fb.Return(nil)
	it := New(b.Build(fb.Done()), nil, WithMaxInstrs(10_000))
	it.Run()
	if got := it.space.Load(it.globalBase[out]); got != 4950 {
		t.Fatalf("budgeted bounded run computed %v, want 4950", got)
	}
}

func TestRecursionFibonacci(t *testing.T) {
	b := ir.NewBuilder("fib")
	out := b.Global("out", ir.F64)
	f := b.Forward("fib", true)
	fb := b.DefineForward(f)
	n := fb.Param("n", ir.F64)
	x := fb.Local("x", ir.F64)
	y := fb.Local("y", ir.F64)
	fb.IfElse(ir.Lt(ir.V(n), ir.CI(2)), func() {
		fb.Return(ir.V(n))
	}, func() {
		fb.CallInto(ir.V(x), f, ir.Sub(ir.V(n), ir.CI(1)))
		fb.CallInto(ir.V(y), f, ir.Sub(ir.V(n), ir.CI(2)))
		fb.Return(ir.Add(ir.V(x), ir.V(y)))
	})
	fb.Done()
	mb := b.Func("main")
	mb.CallInto(ir.V(out), f, ir.CI(15))
	m := b.Build(mb.Done())
	it := run(t, m, nil)
	if got := it.space.Load(it.globalBase[out]); got != 610 {
		t.Fatalf("fib(15) = %v, want 610", got)
	}
}

func TestByRefAliasing(t *testing.T) {
	b := ir.NewBuilder("alias")
	arr := b.GlobalArray("arr", ir.F64, 8)
	inc := b.Func("inc")
	p := inc.RefParam("p", ir.F64, 4)
	inc.SetAt(p, ir.CI(0), ir.Add(ir.At(p, ir.CI(0)), ir.CI(1)))
	incF := inc.Done()
	mb := b.Func("main")
	mb.SetAt(arr, ir.CI(4), ir.CI(10))
	// Pass arr offset by 4: the callee's p[0] is arr[4].
	mb.Call(incF, ir.At(arr, ir.CI(4)))
	mb.Call(incF, ir.At(arr, ir.CI(4)))
	m := b.Build(mb.Done())
	it := run(t, m, nil)
	if got := it.space.Load(it.globalBase[arr] + 4); got != 12 {
		t.Fatalf("arr[4] = %v, want 12", got)
	}
}

func TestByValueParamIsCopied(t *testing.T) {
	got := resultOf(t, func(b *ir.Builder, fb *ir.FuncBuilder, out *ir.Var) {
		f := b.Func("mod")
		v := f.Param("v", ir.F64)
		f.Set(v, ir.CI(99)) // must not affect the caller
		fd := f.Done()
		x := fb.Local("x", ir.F64)
		fb.Set(x, ir.CI(5))
		fb.Call(fd, ir.V(x))
		fb.Set(out, ir.V(x))
	})
	if got != 5 {
		t.Fatalf("by-value arg modified caller: %v", got)
	}
}

func TestReturnInsideLoopFiresExitRegion(t *testing.T) {
	b := ir.NewBuilder("ret")
	f := b.FuncRet("find")
	lim := f.Param("lim", ir.F64)
	f.For("i", ir.CI(0), ir.CI(100), ir.CI(1), func(i *ir.Var) {
		f.If(ir.Ge(ir.V(i), ir.V(lim)), func() {
			f.Return(ir.V(i))
		})
	})
	f.Return(ir.CI(-1))
	fd := f.Done()
	mb := b.Func("main")
	out := b.Global("out", ir.F64)
	mb.CallInto(ir.V(out), fd, ir.CI(7))
	m := b.Build(mb.Done())

	exits := map[int32]int64{}
	depth := 0
	it := New(m, evFunc(func(_ *ir.Module, ev *Ev) {
		switch ev.Kind() {
		case EvEnterRegion:
			depth++
		case EvExitRegion:
			depth--
			exits[ev.A] = int64(ev.Addr)
		}
	}))
	it.Run()
	if got := it.space.Load(it.globalBase[out]); got != 7 {
		t.Fatalf("early return value = %v, want 7", got)
	}
	if len(exits) == 0 {
		t.Fatal("no ExitRegion events for early-returned loop")
	}
	if depth != 0 {
		t.Fatalf("unbalanced region events: depth %d", depth)
	}
}

func TestHeapFreeAndReuse(t *testing.T) {
	b := ir.NewBuilder("heap")
	f := b.Func("scratch")
	buf := f.HeapArray("buf", ir.F64, 16)
	f.SetAt(buf, ir.CI(0), ir.CI(1))
	f.Free(buf)
	fd := f.Done()
	mb := b.Func("main")
	mb.Call(fd)
	mb.Call(fd)
	mb.Call(fd)
	m := b.Build(mb.Done())
	it := run(t, m, nil)
	// Freed blocks must be reused: three calls, one 16-elem block.
	if it.MaxHeap > 16 {
		t.Fatalf("heap grew to %d elems; free list not reused", it.MaxHeap)
	}
}

func TestStackReuseAcrossCalls(t *testing.T) {
	b := ir.NewBuilder("stack")
	f := b.Func("leaf")
	x := f.Local("x", ir.F64)
	f.Set(x, ir.CI(1))
	fd := f.Done()
	mb := b.Func("main")
	mb.Call(fd)
	mb.Call(fd)
	m := b.Build(mb.Done())
	binds := map[uint64]int{}
	New(m, evFunc(func(m *ir.Module, ev *Ev) {
		if ev.Kind() == EvBindVar && m.Vars[ev.A].Name == "x" {
			binds[ev.Addr]++
		}
	})).Run()
	// Both calls must bind x at the same (reused) stack address.
	for addr, n := range binds {
		if n != 2 {
			t.Fatalf("address %d bound %d times, want 2 (stack reuse)", addr, n)
		}
	}
	if len(binds) != 1 {
		t.Fatalf("distinct bind addresses: %d, want 1", len(binds))
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *ir.Module {
		b := ir.NewBuilder("det")
		out := b.Global("out", ir.F64)
		fb := b.Func("main")
		fb.For("i", ir.CI(0), ir.CI(1000), ir.CI(1), func(i *ir.Var) {
			fb.Set(out, ir.Add(ir.V(out), ir.Rnd()))
		})
		return b.Build(fb.Done())
	}
	i1, i2 := New(build(), nil), New(build(), nil)
	n1, n2 := i1.Run(), i2.Run()
	if n1 != n2 {
		t.Fatalf("instr counts differ: %d vs %d", n1, n2)
	}
	if i1.rng != i2.rng {
		t.Fatal("random streams diverged")
	}
}

func TestSpawnSyncLockedCounter(t *testing.T) {
	const threads = 6
	const per = 50
	b := ir.NewBuilder("mt")
	counter := b.Global("counter", ir.F64)
	w := b.Func("worker")
	w.For("i", ir.CI(0), ir.CI(per), ir.CI(1), func(i *ir.Var) {
		w.Locked(1, func() {
			w.Set(counter, ir.Add(ir.V(counter), ir.CI(1)))
		})
	})
	wf := w.Done()
	mb := b.Func("main")
	mb.Set(counter, ir.CF(0))
	for i := 0; i < threads; i++ {
		mb.Spawn(wf)
	}
	mb.Sync()
	m := b.Build(mb.Done())
	it := run(t, m, nil)
	if got := it.space.Load(it.globalBase[counter]); got != threads*per {
		t.Fatalf("locked counter = %v, want %d", got, threads*per)
	}
}

func TestSpawnInterleavesThreads(t *testing.T) {
	// With quantum-1 scheduling, two spawned threads must interleave
	// their accesses rather than run back to back.
	b := ir.NewBuilder("ilv")
	w := b.Func("worker")
	x := w.Local("x", ir.F64)
	w.For("i", ir.CI(0), ir.CI(20), ir.CI(1), func(i *ir.Var) {
		w.Set(x, ir.V(i))
	})
	wf := w.Done()
	mb := b.Func("main")
	mb.Spawn(wf)
	mb.Spawn(wf)
	mb.Sync()
	m := b.Build(mb.Done())
	var tids []int32
	New(m, evFunc(func(_ *ir.Module, ev *Ev) {
		if ev.Kind() == EvStore && ev.Tid() > 0 {
			tids = append(tids, ev.Tid())
		}
	})).Run()
	switches := 0
	for i := 1; i < len(tids); i++ {
		if tids[i] != tids[i-1] {
			switches++
		}
	}
	if switches < 10 {
		t.Fatalf("threads barely interleaved: %d switches over %d events",
			switches, len(tids))
	}
}

func TestPrepareOpsIdempotent(t *testing.T) {
	b := ir.NewBuilder("ops")
	out := b.Global("out", ir.F64)
	fb := b.Func("main")
	fb.Set(out, ir.Add(ir.V(out), ir.CI(1)))
	m := b.Build(fb.Done())
	n1 := PrepareOps(m)
	n2 := PrepareOps(m)
	if n1 != n2 || n1 == 0 {
		t.Fatalf("PrepareOps not idempotent: %d vs %d", n1, n2)
	}
}

func TestLoopIterationContext(t *testing.T) {
	// Every body access must be preceded, on its thread, by an EvLoopIter
	// naming the active loop and the current iteration: that is the context
	// consumers classify loop-carried dependences with.
	b := ir.NewBuilder("ctx")
	out := b.Global("out", ir.F64)
	fb := b.Func("main")
	loopReg := fb.For("i", ir.CI(0), ir.CI(5), ir.CI(1), func(i *ir.Var) {
		fb.Set(out, ir.V(i))
	})
	m := b.Build(fb.Done())
	region, iter := int32(-1), int64(-1)
	var iters []int64
	New(m, evFunc(func(m *ir.Module, ev *Ev) {
		switch ev.Kind() {
		case EvLoopIter:
			region, iter = ev.A, int64(ev.Addr)
		case EvExitRegion:
			region = -1
		case EvStore:
			if m.Vars[ev.B].Name != "out" {
				return // header induction-variable stores
			}
			if region != int32(loopReg.ID) {
				t.Errorf("store to out in loop context %d, want %d", region, loopReg.ID)
			}
			iters = append(iters, iter)
		}
	})).Run()
	if fmt.Sprint(iters) != "[0 1 2 3 4]" {
		t.Fatalf("body stores observed in iterations %v, want [0 1 2 3 4]", iters)
	}
}
