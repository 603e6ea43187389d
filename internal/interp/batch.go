package interp

import (
	"discopop/internal/bytecode"
	"discopop/internal/ir"
)

// This file is the batched tracing path. Under the bytecode VM, per-access
// interface dispatch (Tracer.Load(Access{...}) per element) costs more than
// the access itself, so tracers that implement BatchTracer instead receive
// the event stream as flat fixed-width records in chunks: the VM appends Ev
// records into a buffer and flushes it when full, at the end of the run,
// and before a runtime-error panic. The event order and content are exactly
// the per-event stream's — ReplayBatch can expand a batch back into Tracer
// calls bit-identically, which is both the compatibility shim for legacy
// tracers and the acceptance harness for the batched path.
//
// The tree walker never batches: it predates the VM as the semantic
// reference and keeps the per-event path alive for differential testing.

// Ev kinds, in the order the per-event Tracer methods declare them.
const (
	EvLoad uint8 = iota
	EvStore
	EvEnterRegion
	EvExitRegion
	EvLoopIter
	EvEnterFunc
	EvExitFunc
	EvBindVar
	EvFreeVar
	EvLock
	EvUnlock
	EvThreadStart
	EvThreadEnd
	// EvLoopPush marks the push of a new loop-nest frame (walker: loop
	// entry after the init store). It has no per-event Tracer equivalent —
	// per-event tracers see the stack itself via Access.Loops — but replay
	// needs it to reconstruct that stack exactly.
	EvLoopPush
)

// Ev is one fixed-width trace event, 32 bytes exactly. The kind and thread
// live in Sink's low 16 bits: the packed-sink layout (file|line|var above
// bit 16, thread at bits 8..15) leaves bits 0..7 unused, so for access
// events the kind rides in the same word the compile-time operand tables
// already deliver — a load's kind is 0 and costs nothing, a store ORs one
// constant bit into the or-chain that merges the thread bits. Control
// events build the same word from evMeta. Field use varies by kind:
//
//	EvLoad/EvStore   Addr, Sink (kind|thread|packed file|line|var), Loc,
//	                 A=op ID, B=var index
//	EvEnterRegion    A=region index
//	EvExitRegion     A=region index, Addr=iters, Loc=instrs (packI64)
//	EvLoopIter       A=region index, Addr=iter
//	EvLoopPush       A=region index
//	EvEnterFunc      A=func index, Loc=call site
//	EvExitFunc       A=func index, Addr=instrs
//	EvBindVar/EvFreeVar  A=var index, Addr=base, B=elems
//	EvLock/EvUnlock  A=mutex ID
//	EvThreadStart    B=parent thread
//
// Sink duplicates (Loc, B, Tid) in packed form so batch consumers that key
// on the packed identity (the profiler) take it verbatim — masking off the
// low kind byte, which packInfo keeps zero — while consumers that need
// exact values (replay: Loc.File can overflow the 10-bit sink field) do
// not round-trip through the packing.
//
// Access events carry no timestamp: the interpreter's clock ticks exactly
// once per access, in stream order, so a batch consumer reconstructs TS by
// counting the access events it has seen (ReplayState does this for
// replayed tracers). Keeping the record at 32 bytes — half a cache line,
// no padding — is worth the packing: the append is the hottest store in
// the traced VM loop, and the consumer re-reads every byte.
type Ev struct {
	Addr uint64
	Sink uint64
	Loc  ir.Loc
	A    int32
	B    int32
}

// Kind extracts the event kind from the packed Sink word.
func (e *Ev) Kind() uint8 { return uint8(e.Sink) }

// Tid extracts the thread ID from the packed Sink word — the same bits
// bytecode.SinkThread packs for access events.
func (e *Ev) Tid() int32 { return int32(e.Sink >> 8 & 0xFF) }

// evMeta builds the Sink word of a control event: kind plus thread.
func evMeta(kind uint8, tid int32) uint64 {
	return uint64(kind) | uint64(uint32(tid)&0xFF)<<8
}

// evStoreBit is OR'd into an access Sink to mark a store (EvLoad is zero
// and needs no marking).
const evStoreBit = uint64(EvStore)

// packI64 stows a 64-bit counter in the Loc field of an event that has no
// source location (EvExitRegion's instruction count); UnpackI64 inverts it.
func packI64(v int64) ir.Loc {
	return ir.Loc{File: int32(uint32(v)), Line: int32(uint32(uint64(v) >> 32))}
}

func UnpackI64(l ir.Loc) int64 {
	return int64(uint64(uint32(l.File)) | uint64(uint32(l.Line))<<32)
}

// BatchTracer is a Tracer that can consume the event stream in chunks. When
// the tracer passed to New implements it and the run uses the bytecode VM,
// the interpreter switches to the batched path; the per-event methods are
// then never called by the interpreter (they remain the compatibility
// surface for the tree walker and for ReplayBatch).
type BatchTracer interface {
	Tracer
	// ProcessBatch consumes one flushed chunk. The slice is reused by the
	// interpreter after the call returns; implementations must not retain
	// it.
	ProcessBatch(m *ir.Module, evs []Ev)
}

// PerEvent wraps t so that only the per-event Tracer interface is visible:
// even if t implements BatchTracer, an interpreter running with the wrapper
// takes the per-access path. This is the ablation/differential-testing
// handle for comparing the two paths on identical runs.
func PerEvent(t Tracer) Tracer { return perEvent{t} }

type perEvent struct{ Tracer }

// evBatchSize is the flush threshold in events (2048 × 32 B = 64 KB of
// buffer): large enough to amortize the flush call and keep the consumer's
// stores hot, small enough to stay cache-resident and cost little per Interp.
const evBatchSize = 2048

// enableBatch switches the interpreter to batched tracing when the tracer
// supports it; VM only — the walker stays on the per-event reference path.
func (it *Interp) enableBatch() {
	if it.prog == nil {
		return
	}
	if bt, ok := it.tracer.(BatchTracer); ok {
		it.batch = bt
		it.evs = make([]Ev, 0, evBatchSize)
	}
}

// flushEvents hands the buffered events to the batch tracer. It is called
// on buffer-full, at the end of Run, and by panicf so that events preceding
// a runtime error are observed exactly as on the per-event path.
func (it *Interp) flushEvents() {
	if it.batch == nil || len(it.evs) == 0 {
		return
	}
	it.batch.ProcessBatch(it.mod, it.evs)
	it.evs = it.evs[:0]
}

func (it *Interp) pushEv(e Ev) {
	it.evs = append(it.evs, e)
	if len(it.evs) == cap(it.evs) {
		it.flushEvents()
	}
}

// The ev* helpers below are the single emission point for each non-access
// event: batch mode appends a record, per-event mode calls the tracer
// directly. Callers keep the `it.tracer != nil` guard.

func (it *Interp) evEnterRegion(r *ir.Region, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvEnterRegion, tid), A: int32(r.ID)})
		return
	}
	it.tracer.EnterRegion(r, tid)
}

func (it *Interp) evExitRegion(r *ir.Region, iters, instrs int64, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvExitRegion, tid), A: int32(r.ID),
			Addr: uint64(iters), Loc: packI64(instrs)})
		return
	}
	it.tracer.ExitRegion(r, iters, instrs, tid)
}

func (it *Interp) evLoopIter(r *ir.Region, iter int64, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvLoopIter, tid), A: int32(r.ID), Addr: uint64(iter)})
		return
	}
	it.tracer.LoopIter(r, iter, tid)
}

// evLoopPush records a loop-stack push; it exists only on the batched path.
func (it *Interp) evLoopPush(region int32, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvLoopPush, tid), A: region})
	}
}

func (it *Interp) evEnterFunc(f *ir.Func, callLoc ir.Loc, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvEnterFunc, tid), A: int32(f.ID), Loc: callLoc})
		return
	}
	it.tracer.EnterFunc(f, callLoc, tid)
}

func (it *Interp) evExitFunc(f *ir.Func, instrs int64, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvExitFunc, tid), A: int32(f.ID), Addr: uint64(instrs)})
		return
	}
	it.tracer.ExitFunc(f, instrs, tid)
}

func (it *Interp) evBindVar(v *ir.Var, base uint64, elems int, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvBindVar, tid), A: int32(v.ID), Addr: base, B: int32(elems)})
		return
	}
	it.tracer.BindVar(v, base, elems, tid)
}

func (it *Interp) evFreeVar(v *ir.Var, base uint64, elems int, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvFreeVar, tid), A: int32(v.ID), Addr: base, B: int32(elems)})
		return
	}
	it.tracer.FreeVar(v, base, elems, tid)
}

func (it *Interp) evLock(id int, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvLock, tid), A: int32(id)})
		return
	}
	it.tracer.Lock(id, tid)
}

func (it *Interp) evUnlock(id int, tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvUnlock, tid), A: int32(id)})
		return
	}
	it.tracer.Unlock(id, tid)
}

func (it *Interp) evThreadStart(tid, parent int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvThreadStart, tid), B: parent})
		return
	}
	it.tracer.ThreadStart(tid, parent)
}

func (it *Interp) evThreadEnd(tid int32) {
	if it.batch != nil {
		it.pushEv(Ev{Sink: evMeta(EvThreadEnd, tid)})
		return
	}
	it.tracer.ThreadEnd(tid)
}

// ReplayState carries the per-thread loop-nest stacks ReplayBatch rebuilds
// across batches; zero value is ready to use. One state must persist for
// the lifetime of one execution's stream.
type ReplayState struct {
	loops [MaxThreads][]LoopFrame
	// ts is the reconstructed interpreter clock: one tick per access event,
	// in stream order (Ev carries no timestamp).
	ts uint64
}

// ReplayBatch expands a batch back into per-event Tracer calls, producing
// exactly the call sequence the interpreter's per-event path would have
// made — including Access.Loops contents, reconstructed from the
// EvLoopPush/EvLoopIter/EvExitRegion stream. The Loops slices are owned by
// st and reused between events, per the Tracer contract.
func ReplayBatch(m *ir.Module, evs []Ev, st *ReplayState, dst Tracer) {
	for i := range evs {
		ev := &evs[i]
		tid := ev.Tid()
		switch ev.Kind() {
		case EvLoad, EvStore:
			st.ts++
			a := Access{Addr: ev.Addr, Loc: ev.Loc, Var: m.Vars[ev.B], Op: ev.A,
				Thread: tid, TS: st.ts, Loops: st.loops[tid]}
			if ev.Kind() == EvLoad {
				dst.Load(a)
			} else {
				dst.Store(a)
			}
		case EvEnterRegion:
			dst.EnterRegion(m.Regions[ev.A], tid)
		case EvExitRegion:
			r := m.Regions[ev.A]
			if r.Kind == ir.RLoop {
				ls := st.loops[tid]
				st.loops[tid] = ls[:len(ls)-1]
			}
			dst.ExitRegion(r, int64(ev.Addr), UnpackI64(ev.Loc), tid)
		case EvLoopIter:
			ls := st.loops[tid]
			ls[len(ls)-1].Iter = int64(ev.Addr)
			dst.LoopIter(m.Regions[ev.A], int64(ev.Addr), tid)
		case EvLoopPush:
			st.loops[tid] = append(st.loops[tid], LoopFrame{Region: ev.A})
		case EvEnterFunc:
			dst.EnterFunc(m.Funcs[ev.A], ev.Loc, tid)
		case EvExitFunc:
			dst.ExitFunc(m.Funcs[ev.A], int64(ev.Addr), tid)
		case EvBindVar:
			dst.BindVar(m.Vars[ev.A], ev.Addr, int(ev.B), tid)
		case EvFreeVar:
			dst.FreeVar(m.Vars[ev.A], ev.Addr, int(ev.B), tid)
		case EvLock:
			dst.Lock(int(ev.A), tid)
		case EvUnlock:
			dst.Unlock(int(ev.A), tid)
		case EvThreadStart:
			// Thread IDs recycle; a fresh thread starts with an empty nest.
			st.loops[tid] = st.loops[tid][:0]
			dst.ThreadStart(tid, ev.B)
		case EvThreadEnd:
			dst.ThreadEnd(tid)
		}
	}
}

// sinkOf packs the full sink identity of an access at runtime — the slow
// path's equivalent of the compile-time TraceInfo operand tables.
func sinkOf(loc ir.Loc, v *ir.Var, tid int32) uint64 {
	return bytecode.PackSink(loc, int32(v.ID)) | bytecode.SinkThread(tid)
}
