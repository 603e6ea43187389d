// Package interp executes IR modules and emits the instrumentation event
// stream that Phase 1 of the framework consumes: one event per memory
// access, control-region entry/exit, loop iteration, function call, variable
// allocation/deallocation, and synchronization operation. It plays the role
// of the instrumented binary plus libDiscoPoP runtime of Section 1.5, and
// like it has one way to hand over events: chunks of 32-byte Ev records
// passed to Tracer.ProcessBatch (batch.go). Two engines fill those chunks
// through the same emission helpers — the bytecode VM (vm.go, the default)
// and the tree walker (exec.go, WithTreeWalk), the executable reference the
// differential tests hold the VM to, record for record.
//
// Running with a nil Tracer is the "uninstrumented" baseline against which
// profiling slowdown is measured; the interpreter's own cost cancels out of
// the slowdown ratio exactly as native execution time does in the paper.
package interp

import (
	"fmt"
	"math"
	"time"

	"discopop/internal/bytecode"
	"discopop/internal/ir"
	"discopop/internal/mem"
)

// Tracer receives the instrumentation event stream: fixed-width Ev records
// (batch.go) in chunks, from either engine. ProcessBatch is called
// synchronously in execution order (the simulated-thread scheduler
// serializes all threads onto one event stream, so cross-thread event order
// matches the simulated happens-before order); of a multi-threaded target it
// is called on whichever simulated thread's goroutine filled the chunk, one
// at a time. The slice is reused by the interpreter after the call returns;
// implementations must not retain it.
type Tracer interface {
	ProcessBatch(m *ir.Module, evs []Ev)
}

// BatchTracer and BaseTracer are the two names bench/layers.go still compiles
// against (bench/ is edited only by benchmark PRs): the chunk interface is
// Tracer itself and there are no per-event methods left to default. The next
// benchmark PR drops both.
type BatchTracer = Tracer

// BaseTracer is an empty struct; see BatchTracer.
type BaseTracer struct{}

// MaxThreads is the maximum number of simulated threads per execution. The
// address-space layout (internal/mem) reserves one stack segment per
// thread; segments materialize lazily on first touch.
const MaxThreads = mem.MaxThreads

const maxIters = int64(1) << 40

// PrepareOps assigns static memory-operation IDs (Section 2.4's accessInfo
// identities) to every Ref of the module, returning the number of
// operations. The numbering runs exactly once per module (synchronized
// through ir.Module): it is deterministic, so later calls return the
// recorded count without re-writing Op fields a concurrent analysis of the
// same module may be reading. Loop headers use dedicated negative IDs
// derived from their region, handled by the interpreter directly.
func PrepareOps(m *ir.Module) int32 {
	return m.NumberOps(ir.NumberStaticOps)
}

// Interp executes one module. Create with New, run with Run. An Interp is
// single-use: run it once, then (when constructed WithPool) call Release to
// recycle its address space for the next run.
type Interp struct {
	mod    *ir.Module
	tracer Tracer

	space      *mem.Space
	pool       *mem.Pool // non-nil when the space came from a pool
	layout     mem.Layout
	globalBase map[*ir.Var]uint64

	mainT    *thread
	spawned  []*thread
	nextTID  int32
	freeTIDs []int32 // dead thread IDs available for reuse (LIFO)
	nthreads int
	mt       bool // true while spawned threads are live
	mutexes  map[int]int32

	rng       uint64
	maxInstrs int64 // 0 = unbounded

	// evs buffers the events of a traced run between flushes (batch.go).
	evs []Ev

	prog *bytecode.Program // nil under WithTreeWalk

	// Stats
	Instrs  int64 // total leaf statements executed
	Loads   int64
	Stores  int64
	MaxHeap uint64

	// CompileTime is the bytecode compilation time spent by New (zero on a
	// compile-cache hit or under WithTreeWalk); CompileHit
	// reports whether the shared cache already held the program.
	CompileTime time.Duration
	CompileHit  bool
}

// New creates an interpreter for module m reporting events to t (nil for an
// uninstrumented run). Options select where the simulated address space
// comes from: by default a fresh lazily-materialized mem.Space, with
// WithPool recycling arenas across runs.
func New(m *ir.Module, t Tracer, opts ...Option) *Interp {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	it := &Interp{
		mod:        m,
		tracer:     t,
		globalBase: map[*ir.Var]uint64{},
		mutexes:    map[int]int32{},
		rng:        0x2545F4914F6CDD1D,
		maxInstrs:  cfg.maxInstrs,
	}
	// Globals occupy [1, globalsEnd) in declaration order; address 0 is
	// unused so that 0 can mean "no address". Stack and heap segment
	// boundaries are derived by the layout.
	next := uint64(1)
	for _, v := range m.Vars {
		if v.Kind == ir.KGlobal {
			it.globalBase[v] = next
			next += uint64(v.Elems)
		}
	}
	it.layout = mem.NewLayout(next)
	if cfg.pool != nil {
		it.space = cfg.pool.Get(it.layout)
		it.pool = cfg.pool
	} else {
		it.space = mem.NewSpace(it.layout)
	}
	PrepareOps(m)
	if !cfg.treeWalk {
		it.prog, it.CompileHit, it.CompileTime = bytecode.Shared.Get(m)
		if it.prog.GlobalsEnd != next {
			panic("interp: compiled program does not match the module's global layout")
		}
	}
	if t != nil {
		it.evs = make([]Ev, 0, evBatchSize)
	}
	return it
}

// Space exposes the interpreter's address space (state inspection, tests).
func (it *Interp) Space() *mem.Space { return it.space }

// Release returns a pooled address space for recycling. It is a no-op for
// interpreters constructed without WithPool, and idempotent; the Interp
// must not be used afterwards.
func (it *Interp) Release() {
	if it.pool != nil && it.space != nil {
		it.pool.Put(it.space)
	}
	it.space = nil
}

func (it *Interp) rand() float64 {
	// xorshift64*
	it.rng ^= it.rng >> 12
	it.rng ^= it.rng << 25
	it.rng ^= it.rng >> 27
	return float64(it.rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// Run executes the module's entry function to completion and returns the
// total number of leaf statements executed. A runtime error — on any
// simulated thread — panics on the calling goroutine, after the buffered
// events were flushed; no goroutine Run started outlives it (threads.go).
func (it *Interp) Run() int64 {
	if it.mod.Main == nil {
		panic("interp: module has no entry function")
	}
	defer it.killThreads()
	main := it.newThread(0, -1)
	it.mainT = main
	it.nextTID = 1
	it.execThread(main, it.mod.Main, nil)
	// Drain any threads the program forgot to join.
	for it.mt {
		if !it.runRound() && it.mt {
			panic("interp: deadlock after main exit")
		}
	}
	it.flushEvents()
	return it.Instrs
}

// heapAlloc reserves n elements on the simulated heap, reusing freed blocks
// of the same size so that addresses get recycled (the hazard the variable
// lifetime analysis of Section 2.3.5 guards against).
func (it *Interp) heapAlloc(n int) uint64 {
	base := it.space.Alloc(n)
	if h := it.space.MaxHeap(); h > it.MaxHeap {
		it.MaxHeap = h
	}
	return base
}

func (it *Interp) heapFree(base uint64, n int) {
	it.space.Free(base, n)
}

// panicf aborts interpretation with a formatted runtime error. Buffered
// trace events are flushed first, so tracers observe everything that
// preceded the fault.
func (it *Interp) panicf(format string, args ...any) {
	it.flushEvents()
	panic(fmt.Sprintf("interp: "+format, args...))
}

func (it *Interp) load(t *thread, addr uint64, loc ir.Loc, v *ir.Var, op int32) float64 {
	it.Loads++
	// Bounds come first: an out-of-range access must panic without feeding
	// a bogus event to the tracer (and through it the dependence table).
	if addr >= it.space.Bound() {
		it.panicf("load out of range: %s[%d] at %s", v.Name, addr, loc)
	}
	if it.tracer != nil {
		it.emit(addr, sinkOf(loc, v, t.id), loc, op, int32(v.ID))
	}
	return it.space.Load(addr)
}

func (it *Interp) store(t *thread, addr uint64, val float64, loc ir.Loc, v *ir.Var, op int32) {
	it.Stores++
	if addr >= it.space.Bound() {
		it.panicf("store out of range: %s[%d] at %s", v.Name, addr, loc)
	}
	if it.tracer != nil {
		it.emit(addr, sinkOf(loc, v, t.id)|evStoreBit, loc, op, int32(v.ID))
	}
	it.space.Store(addr, val)
}

// addrOf resolves the base address of variable v in thread t's top frame.
func (it *Interp) addrOf(t *thread, v *ir.Var) uint64 {
	if v.Kind == ir.KGlobal {
		return it.globalBase[v]
	}
	fr := t.top()
	a, ok := fr.env[v]
	if !ok {
		it.panicf("unbound variable %s in %s", v.Name, fr.fn.Name)
	}
	return a
}

// elemAddr resolves the address of ref (scalar or indexed), evaluating and
// tracing the index expression.
func (it *Interp) elemAddr(t *thread, r *ir.Ref, loc ir.Loc) uint64 {
	base := it.addrOf(t, r.Var)
	if r.Index == nil {
		return base
	}
	idx := int64(it.eval(t, r.Index, loc))
	if idx < 0 || idx >= int64(r.Var.Elems) {
		it.panicf("index %d out of range for %s[%d] at %s", idx, r.Var.Name, r.Var.Elems, loc)
	}
	return base + uint64(idx)
}

// eval evaluates an expression. All access events inherit loc, the location
// of the enclosing statement, matching the paper's line-level dependences.
func (it *Interp) eval(t *thread, e ir.Expr, loc ir.Loc) float64 {
	switch n := e.(type) {
	case *ir.Const:
		return n.Val
	case *ir.Ref:
		addr := it.elemAddr(t, n, loc)
		return it.load(t, addr, loc, n.Var, n.Op)
	case *ir.Bin:
		l := it.eval(t, n.L, loc)
		// Short-circuit logical operators.
		switch n.Op {
		case ir.OpLAnd:
			if l == 0 {
				return 0
			}
			return b2f(it.eval(t, n.R, loc) != 0)
		case ir.OpLOr:
			if l != 0 {
				return 1
			}
			return b2f(it.eval(t, n.R, loc) != 0)
		}
		r := it.eval(t, n.R, loc)
		return binEval(n.Op, l, r)
	case *ir.Un:
		x := it.eval(t, n.X, loc)
		return unEval(n.Op, x)
	case *ir.Rand:
		return it.rand()
	case *ir.CallExpr:
		return it.call(t, n, loc)
	}
	it.panicf("unknown expression %T", e)
	return 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// binHot evaluates the arithmetic operators that dominate dynamic op
// frequency, shaped to inline into the VM dispatch loop; everything else
// reports false and takes the full binEval switch.
func binHot(op ir.BinOp, l, r float64) (float64, bool) {
	switch op {
	case ir.OpAdd:
		return l + r, true
	case ir.OpSub:
		return l - r, true
	case ir.OpMul:
		return l * r, true
	case ir.OpLt:
		return b2f(l < r), true
	case ir.OpLe:
		return b2f(l <= r), true
	}
	return 0, false
}

func binEval(op ir.BinOp, l, r float64) float64 {
	switch op {
	case ir.OpAdd:
		return l + r
	case ir.OpSub:
		return l - r
	case ir.OpMul:
		return l * r
	case ir.OpDiv:
		if r == 0 {
			return 0
		}
		return l / r
	case ir.OpMod:
		ir2 := int64(r)
		if ir2 == 0 {
			return 0
		}
		return float64(int64(l) % ir2)
	case ir.OpAnd:
		return float64(int64(l) & int64(r))
	case ir.OpOr:
		return float64(int64(l) | int64(r))
	case ir.OpXor:
		return float64(int64(l) ^ int64(r))
	case ir.OpShl:
		return float64(int64(l) << (uint64(r) & 63))
	case ir.OpShr:
		return float64(int64(l) >> (uint64(r) & 63))
	case ir.OpLt:
		return b2f(l < r)
	case ir.OpLe:
		return b2f(l <= r)
	case ir.OpGt:
		return b2f(l > r)
	case ir.OpGe:
		return b2f(l >= r)
	case ir.OpEq:
		return b2f(l == r)
	case ir.OpNe:
		return b2f(l != r)
	case ir.OpMin:
		return math.Min(l, r)
	case ir.OpMax:
		return math.Max(l, r)
	}
	return 0
}

func unEval(op ir.UnOp, x float64) float64 {
	switch op {
	case ir.OpNeg:
		return -x
	case ir.OpNot:
		return b2f(x == 0)
	case ir.OpSqrt:
		return math.Sqrt(math.Abs(x))
	case ir.OpSin:
		return math.Sin(x)
	case ir.OpCos:
		return math.Cos(x)
	case ir.OpExp:
		return math.Exp(x)
	case ir.OpLog:
		if x <= 0 {
			return 0
		}
		return math.Log(x)
	case ir.OpAbs:
		return math.Abs(x)
	case ir.OpFloor:
		return math.Floor(x)
	}
	return 0
}
