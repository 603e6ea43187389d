package interp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// traceHasher folds every event record — in order, all 32 bytes of it,
// the packed Sink word included — into one FNV-1a sum. Two runs that produce
// the same sum, event count, and instruction counters emitted byte-identical
// streams; this is the oracle for the walker-vs-VM differential tests below,
// which therefore compare the production chunk path with the reference
// directly: the walker packs Sink at run time (sinkOf), the VM's fast paths
// read it from the compile-time bytecode.TraceInfo tables.
type traceHasher struct {
	sum    uint64
	events int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *traceHasher) ProcessBatch(_ *ir.Module, evs []Ev) {
	s := h.sum
	for i := range evs {
		ev := &evs[i]
		for _, w := range [4]uint64{ev.Addr, ev.Sink, ev.Loc.Key(),
			uint64(uint32(ev.A)) | uint64(uint32(ev.B))<<32} {
			for j := 0; j < 8; j++ {
				s ^= w & 0xff
				s *= fnvPrime
				w >>= 8
			}
		}
	}
	h.sum = s
	h.events += int64(len(evs))
}

// TestEvIs32Bytes pins the record width the buffer sizing, the profiler's
// 32-byte worker records and the hasher's four words all assume.
func TestEvIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Ev{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Ev{}) = %d, want 32", n)
	}
}

// engineRun captures everything a run exposes: the trace digest and the
// interpreter's own counters.
type engineRun struct {
	sum    uint64
	events int64
	ret    int64
	instrs int64
	loads  int64
	stores int64
}

func runEngine(m *ir.Module, opts ...Option) engineRun {
	th := &traceHasher{sum: fnvOffset}
	it := New(m, th, opts...)
	ret := it.Run()
	return engineRun{
		sum: th.sum, events: th.events, ret: ret,
		instrs: it.Instrs, loads: it.Loads, stores: it.Stores,
	}
}

// TestVMMatchesTreeWalkAcrossRegistry: for every bundled workload — the
// full registry, multi-threaded ones included — the bytecode VM emits an
// Ev stream byte-identical to the reference tree walker's, with identical
// instruction, load, and store counts. This is the contract that makes
// the VM a drop-in engine: every profiler artifact is a pure function of
// this event stream.
func TestVMMatchesTreeWalkAcrossRegistry(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := workloads.MustBuild(name, 1).M
			walk := runEngine(m, WithTreeWalk())
			vm := runEngine(m)
			if walk.sum != vm.sum || walk.events != vm.events {
				t.Errorf("trace diverged: walker %016x (%d events), vm %016x (%d events)",
					walk.sum, walk.events, vm.sum, vm.events)
			}
			if walk.instrs != vm.instrs || walk.ret != vm.ret {
				t.Errorf("instrs diverged: walker %d (ret %d), vm %d (ret %d)",
					walk.instrs, walk.ret, vm.instrs, vm.ret)
			}
			if walk.loads != vm.loads || walk.stores != vm.stores {
				t.Errorf("access counts diverged: walker %d/%d, vm %d/%d",
					walk.loads, walk.stores, vm.loads, vm.stores)
			}
		})
	}
}

// TestVMMatchesTreeWalkUntraced: with no tracer attached the VM takes its
// fast paths (inlined loads and stores, fused superinstructions) — the
// counters must still agree with the walker's exactly.
func TestVMMatchesTreeWalkUntraced(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := workloads.MustBuild(name, 1).M
			wit := New(m, nil, WithTreeWalk())
			wret := wit.Run()
			vit := New(m, nil)
			vret := vit.Run()
			if wret != vret || wit.Instrs != vit.Instrs {
				t.Errorf("instrs diverged: walker %d (ret %d), vm %d (ret %d)",
					wit.Instrs, wret, vit.Instrs, vret)
			}
			if wit.Loads != vit.Loads || wit.Stores != vit.Stores {
				t.Errorf("access counts diverged: walker %d/%d, vm %d/%d",
					wit.Loads, wit.Stores, vit.Loads, vit.Stores)
			}
		})
	}
}

// capturePanic runs an interpreter to completion or panic, returning the
// panic message ("" if none) and the instruction count at that moment.
func capturePanic(m *ir.Module, opts ...Option) (msg string, instrs int64) {
	it := New(m, nil, opts...)
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
		instrs = it.Instrs
	}()
	it.Run()
	return
}

// TestVMBudgetParity: WithMaxInstrs aborts both engines at the same
// instruction count with the same message — the budget check sits at the
// same back-edge and call sites in the bytecode as in the tree.
func TestVMBudgetParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"CG", 500},
		{"CG", 7777},
		{"mandelbrot", 1000},
		{"md5-mt", 2000},
		{"md5-mt", 20000}, // fires on a spawned thread
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s@%d", tc.name, tc.budget), func(t *testing.T) {
			m := workloads.MustBuild(tc.name, 1).M
			wmsg, winstrs := capturePanic(m, WithMaxInstrs(tc.budget), WithTreeWalk())
			vmsg, vinstrs := capturePanic(m, WithMaxInstrs(tc.budget))
			if wmsg == "" {
				t.Fatalf("budget %d did not fire on the walker", tc.budget)
			}
			if wmsg != vmsg {
				t.Errorf("panic diverged:\n  walker: %s\n  vm:     %s", wmsg, vmsg)
			}
			if winstrs != vinstrs {
				t.Errorf("budget fired at instr %d on the walker, %d on the vm", winstrs, vinstrs)
			}
		})
	}
}

// faultModule builds a multi-threaded module with one runtime error in it:
// main spawns two workers that count forever in a locked region and joins
// them; where names the thread that stores out of range on its 10th
// iteration ("main", before the join, or "worker"), or is "budget" for no
// store at all, which leaves the endless workers to the instruction budget.
func faultModule(where string) *ir.Module {
	b := ir.NewBuilder("fault-" + where)
	arr := b.GlobalArray("arr", ir.F64, 4)
	n := b.Global("n", ir.F64)
	oob := func(fb *ir.FuncBuilder) {
		fb.For("i", ir.CI(0), ir.CI(20), ir.CI(1), func(i *ir.Var) {
			fb.If(ir.Ge(ir.V(i), ir.CI(9)), func() { fb.SetAt(arr, ir.CI(4), ir.CF(1)) })
		})
	}
	w := b.Func("worker")
	if where == "worker" {
		oob(w)
	}
	w.While(ir.Lt(ir.CI(0), ir.CI(1)), func() {
		w.Locked(1, func() { w.Set(n, ir.Add(ir.V(n), ir.CI(1))) })
	})
	wf := w.Done()
	mb := b.Func("main")
	mb.Spawn(wf)
	mb.Spawn(wf)
	if where == "main" {
		oob(mb)
	}
	mb.Sync()
	return b.Build(mb.Done())
}

// TestThreadFaultSurfacesOnRun: a runtime error on any simulated thread — the
// out-of-range store, and the instruction budget firing on a worker — panics
// on the goroutine that called Run, with the same message at the same
// instruction count on both engines, traced (the fault flushes the buffer on
// the faulting thread) and untraced; and the threads still parked when Run
// unwinds, one of them inside the locked region, do not outlive it.
func TestThreadFaultSurfacesOnRun(t *testing.T) {
	for _, where := range []string{"worker", "main", "budget"} {
		m := faultModule(where)
		before := runtime.NumGoroutine()
		wmsg, winstrs := capturePanic(m, WithMaxInstrs(5000), WithTreeWalk())
		vmsg, vinstrs := capturePanic(m, WithMaxInstrs(5000))
		want := "out of range"
		if where == "budget" {
			want = "instruction budget"
		}
		if !strings.Contains(wmsg, want) {
			t.Errorf("%s: walker panic %q, want one containing %q", where, wmsg, want)
		}
		if wmsg != vmsg || winstrs != vinstrs {
			t.Errorf("%s: engines diverged:\n  walker: %s (instr %d)\n  vm:     %s (instr %d)",
				where, wmsg, winstrs, vmsg, vinstrs)
		}
		walk, vm := &traceHasher{sum: fnvOffset}, &traceHasher{sum: fnvOffset}
		runToPanic(m, walk, WithMaxInstrs(5000), WithTreeWalk())
		runToPanic(m, vm, WithMaxInstrs(5000))
		if *walk != *vm || walk.events == 0 {
			t.Errorf("%s: traced prefix diverged: walker %+v, vm %+v", where, *walk, *vm)
		}
		// A thread's coroutine has exited by the time its stop, or the next
		// that ran it to completion, returns: nothing is left to wait for.
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines outlive Run", where, n-before)
		}
	}
}

// buildSpawnLoop builds a module whose main loop spawns a short-lived
// worker and joins it, n times over. Only two simulated threads are ever
// live at once, but before thread-ID recycling each iteration burned a
// fresh ID — and the 65th spawn overflowed the fixed thread table.
func buildSpawnLoop(n int64) *ir.Module {
	b := ir.NewBuilder("recycle")
	w := b.Func("worker")
	x := w.Local("x", ir.F64)
	w.Set(x, ir.Add(ir.V(x), ir.CI(1)))
	wf := w.Done()
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(n), ir.CI(1), func(i *ir.Var) {
		mb.Spawn(wf)
		mb.Sync()
	})
	return b.Build(mb.Done())
}

// TestThreadIDRecycling: spawning 70 sequential workers — more than the
// 64-slot thread table — succeeds on both engines because dead threads'
// IDs return to a free list, and the recycled IDs reuse the same stack
// segment (the arena stays at two segments: main plus one worker).
func TestThreadIDRecycling(t *testing.T) {
	for _, eng := range []struct {
		name string
		opts []Option
	}{
		{"treewalk", []Option{WithTreeWalk()}},
		{"vm", nil},
	} {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			m := buildSpawnLoop(70)
			it := New(m, nil, eng.opts...)
			it.Run()
			if got := it.Space().StackPagesTouched(); got != 2 {
				t.Errorf("stack segments materialized = %d, want 2 (main + one recycled worker)", got)
			}
		})
	}
}

// TestThreadIDRecyclingTraced: the recycled runs stay trace-identical
// between engines — recycling is an allocator detail, invisible to the
// event stream.
func TestThreadIDRecyclingTraced(t *testing.T) {
	m := buildSpawnLoop(70)
	walk := runEngine(m, WithTreeWalk())
	vm := runEngine(m)
	if walk.sum != vm.sum || walk.events != vm.events || walk.instrs != vm.instrs {
		t.Errorf("recycled trace diverged: walker %016x/%d events/%d instrs, vm %016x/%d events/%d instrs",
			walk.sum, walk.events, walk.instrs, vm.sum, vm.events, vm.instrs)
	}
}

// TestLiveThreadOverflowStillPanics: recycling must not lift the cap on
// *concurrently live* threads — 70 workers alive at once still overflow,
// with the same message on both engines.
func TestLiveThreadOverflowStillPanics(t *testing.T) {
	b := ir.NewBuilder("overflow")
	w := b.Func("worker")
	x := w.Local("x", ir.F64)
	// Long-running workers: the cooperative scheduler advances every live
	// thread between spawns, so a one-statement worker would die (and
	// free its ID) before the next spawn. These outlive all 70 spawns.
	w.For("j", ir.CI(0), ir.CI(1<<20), ir.CI(1), func(j *ir.Var) {
		w.Set(x, ir.Add(ir.V(x), ir.CI(1)))
	})
	wf := w.Done()
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(70), ir.CI(1), func(i *ir.Var) {
		mb.Spawn(wf) // no Sync: every worker is still live at each spawn
	})
	m := b.Build(mb.Done())
	wmsg, _ := capturePanic(m, WithTreeWalk())
	vmsg, _ := capturePanic(m)
	if wmsg == "" || vmsg == "" {
		t.Fatalf("70 live threads did not overflow: walker %q, vm %q", wmsg, vmsg)
	}
	if wmsg != vmsg {
		t.Errorf("overflow panic diverged:\n  walker: %s\n  vm:     %s", wmsg, vmsg)
	}
}
