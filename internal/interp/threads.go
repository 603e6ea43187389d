package interp

import (
	"iter"

	"discopop/internal/ir"
)

// This file implements the simulated-thread machinery. Threads created by
// Spawn statements run as iter.Pull coroutines that are granted one
// statement at a time, round-robin, so that multi-threaded target programs
// (Section 2.3.4) execute with a deterministic, finely interleaved schedule
// and a single serialized event stream. The main thread acts as the
// scheduler: at each of its own statement boundaries it resumes every other
// live thread (next) for one statement, which then parks (yield). A switch
// between coroutines is a direct handoff that bypasses the Go scheduler.
//
// Run's caller sees one goroutine: a runtime error raised on a spawned
// thread (a fault in the target program, the instruction budget, a panicking
// tracer) panics out of that thread's coroutine, and next re-raises it, the
// same value, on the goroutine that called Run; and whether Run returns or
// panics, every thread still parked is unwound by its stop first, so no
// goroutine outlives it.

type frame struct {
	fn       *ir.Func
	env      map[*ir.Var]uint64
	ret      float64
	returned bool
	spSave   uint64
	bound    []*ir.Var // locals and by-value params to free on exit
}

type thread struct {
	id       int32
	parent   int32
	frames   []*frame
	stack    uint64 // base of this thread's stack segment
	sp       uint64
	next     func() (struct{}, bool) // scheduler side: run one statement
	stop     func()                  // scheduler side: unwind if parked
	yield    func(struct{}) bool     // thread side: park; false once stopped
	done     bool
	blocked  func() bool // non-nil while waiting; true when runnable again
	children int
	parentT  *thread

	// Bytecode-engine state (nil/empty under the tree walker): the value
	// stack, the frame-slot stack holding each activation's variable base
	// addresses, and the open loop/branch/lock control regions.
	vstack []float64
	vsp    int
	slots  []uint64
	ctrl   []vmCtrl
}

func (t *thread) top() *frame { return t.frames[len(t.frames)-1] }

func (it *Interp) newThread(id, parent int32) *thread {
	t := &thread{
		id:     id,
		parent: parent,
		stack:  it.layout.StackBase(id),
	}
	t.sp = t.stack
	return t
}

// argVal is an evaluated call argument: either a scalar value or an aliased
// base address for by-reference parameters.
type argVal struct {
	val   float64
	base  uint64
	byRef bool
	elems int
}

// yieldPoint is called after every executed leaf statement. With a single
// live thread it is one inlined test, so sequential programs run at full
// speed; in multi-threaded mode the main thread runs one scheduling round
// and spawned threads hand the token back.
func (it *Interp) yieldPoint(t *thread) {
	if it.mt {
		it.reschedule(t)
	}
}

// reschedule is yieldPoint's multi-threaded half, a function of its own so
// that yieldPoint stays within the inlining budget.
func (it *Interp) reschedule(t *thread) {
	if t == it.mainT {
		it.runRound()
		return
	}
	it.park(t)
}

// threadKilled is the panic that unwinds a parked thread whose run is over.
type threadKilled struct{}

// park hands the token back to the scheduler and waits for the next grant,
// or unwinds the thread when stop resumes it instead.
func (it *Interp) park(t *thread) {
	if !t.yield(struct{}{}) {
		panic(threadKilled{})
	}
}

// killThreads unwinds every spawned thread that is still parked; stop
// returns once the coroutine has exited, and is a no-op on one that already
// has. Run defers it: after a normal return there is nothing left to unwind.
func (it *Interp) killThreads() {
	for _, t := range it.spawned {
		t.stop()
	}
}

// runRound grants every live spawned thread one statement. It reports
// whether any thread made progress.
func (it *Interp) runRound() bool {
	progressed := false
	for i := 0; i < len(it.spawned); i++ {
		t := it.spawned[i]
		if t.done {
			continue
		}
		if t.blocked != nil && !t.blocked() {
			continue
		}
		t.next()
		progressed = true
	}
	// Compact finished threads away occasionally.
	if len(it.spawned) > 0 && allDone(it.spawned) {
		it.spawned = it.spawned[:0]
		it.mt = false
	}
	return progressed
}

func allDone(ts []*thread) bool {
	for _, t := range ts {
		if !t.done {
			return false
		}
	}
	return true
}

// block parks t until cond() becomes true.
func (it *Interp) block(t *thread, cond func() bool) {
	if t == it.mainT {
		for !cond() {
			if !it.mt || !it.runRound() {
				panic("interp: deadlock: main thread blocked with no runnable peers")
			}
		}
		return
	}
	for !cond() {
		t.blocked = cond
		it.park(t)
		t.blocked = nil
	}
}

// allocTID returns a thread ID, preferring the free list so that dead
// threads' IDs — and with them their address-space stack segments, which
// are derived from the ID — get recycled. The MaxThreads bound therefore
// limits *live* threads, not total spawns, and the number of materialized
// stack pages is bounded by the peak live-thread count.
func (it *Interp) allocTID() int32 {
	if n := len(it.freeTIDs); n > 0 {
		id := it.freeTIDs[n-1]
		it.freeTIDs = it.freeTIDs[:n-1]
		return id
	}
	id := it.nextTID
	it.nextTID++
	if id >= MaxThreads {
		it.panicf("too many threads (max %d)", MaxThreads)
	}
	return id
}

// startSpawned launches a new simulated thread executing call. The
// arguments are evaluated by the parent, so their reads are attributed to
// the spawning thread, as with pthread_create argument marshalling.
func (it *Interp) startSpawned(parent *thread, call *ir.CallExpr, loc ir.Loc) {
	args := it.evalArgs(parent, call, loc)
	it.spawnThread(parent, call.Callee, args)
}

// spawnThread registers and starts a child thread running fn(args); the
// arguments are already evaluated (by the walker's evalArgs or the VM's
// compiled argument code).
func (it *Interp) spawnThread(parent *thread, fn *ir.Func, args []argVal) {
	child := it.newThread(it.allocTID(), parent.id)
	child.parentT = parent
	parent.children++
	it.mt = true
	it.spawned = append(it.spawned, child)
	child.next, child.stop = iter.Pull(func(yield func(struct{}) bool) {
		// The thread ends by completion; by a fault, which panics out of
		// the coroutine for runRound's next to re-raise on Run's goroutine;
		// or by killThreads' stop, which ends it quietly.
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(threadKilled); !killed {
					panic(r)
				}
			}
		}()
		child.yield = yield
		it.execThread(child, fn, args)
	})
}

// execThread runs fn to completion on t.
func (it *Interp) execThread(t *thread, fn *ir.Func, args []argVal) {
	it.nthreads++
	if it.tracer != nil {
		it.evThreadStart(t.id, t.parent)
	}
	if it.prog != nil {
		it.vmCall(t, int32(fn.ID), args, fn.Loc)
	} else {
		it.callFunc(t, fn, args, fn.Loc)
	}
	t.done = true
	it.nthreads--
	if t.parentT != nil {
		t.parentT.children--
	}
	if it.tracer != nil {
		it.evThreadEnd(t.id)
	}
	// The thread is dead; its ID (and stack segment) can be reused by the
	// next spawn. ID 0 is the main thread and never recycles.
	if t.id != 0 {
		it.freeTIDs = append(it.freeTIDs, t.id)
	}
}
