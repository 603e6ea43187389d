package interp

import (
	"discopop/internal/bytecode"
	"discopop/internal/ir"
)

// This file is the event seam: the one representation in which an event
// leaves the interpreter. Per-access interface dispatch costs more than the
// access itself, so both engines append flat fixed-width Ev records to a
// buffer that is handed to the tracer when full, at the end of the run, and
// before a runtime-error panic. The VM's fast paths build an access record
// from compile-time operand tables (bytecode.TraceInfo); the shared load/store
// slow path and every walker access build the identical record at run time
// (sinkOf); control events go through the ev* helpers below on both engines.

// Ev kinds.
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
//	EvEnterFunc      A=func index, Loc=call site
//	EvExitFunc       A=func index, Addr=instrs
//	EvBindVar/EvFreeVar  A=var index, Addr=base, B=elems
//	EvLock/EvUnlock  A=mutex ID
//	EvThreadStart    B=parent thread
//
// Sink duplicates (Loc, B, Tid) in packed form so consumers that key on the
// packed identity (the profiler) take it verbatim — masking off the low
// kind byte — while consumers that need exact values (Loc.File can overflow
// the 10-bit sink field) do not round-trip through the packing.
//
// Access events carry no timestamp: a logical clock that ticks once per
// access, in stream order, is the count of access events seen, which a
// consumer that needs one keeps itself (the profiler does). Keeping the
// record at 32 bytes — half a cache line, no padding — is worth the
// packing: writing it is the hottest store in the traced VM loop (emit), and
// the consumer re-reads every byte.
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

// evBatchSize is the flush threshold in events (2048 × 32 B = 64 KB of
// buffer): large enough to amortize the flush call and keep the consumer's
// stores hot, small enough to stay cache-resident and cost little per Interp.
const evBatchSize = 2048

// flushEvents hands the buffered events to the tracer. It is called on
// buffer-full, at the end of Run, and by panicf so that the events preceding
// a runtime error are observed. It is the cold half of emit and is kept out
// of line, so that what runs per event is emit's five stores and one compare.
//
//go:noinline
func (it *Interp) flushEvents() {
	if len(it.evs) == 0 {
		return
	}
	it.tracer.ProcessBatch(it.mod, it.evs)
	it.evs = it.evs[:0]
}

// emit is the one place an event is written: it extends the buffer by one
// slot and stores the fields straight into it. It takes the fields, not an
// Ev: an Ev argument is assembled in a stack temporary with 8- and 4-byte
// stores and then copied into the buffer with two 16-byte loads, neither of
// which the store buffer can forward — two stalls per event, a fifth of a
// traced run (docs/runs/PR19.md). Every field is written every time (the
// slot is recycled), so the stream does not depend on what a slot held
// before. The buffer always has room: a full one is flushed before emit
// returns.
func (it *Interp) emit(addr, sink uint64, loc ir.Loc, a, b int32) {
	n := len(it.evs)
	it.evs = it.evs[:n+1]
	e := &it.evs[n]
	e.Addr = addr
	e.Sink = sink
	e.Loc = loc
	e.A = a
	e.B = b
	if n+1 == cap(it.evs) {
		it.flushEvents()
	}
}

// The ev* helpers below are the single emission point for each non-access
// event, on both engines. Callers keep the `it.tracer != nil` guard.

func (it *Interp) evEnterRegion(r *ir.Region, tid int32) {
	it.emit(0, evMeta(EvEnterRegion, tid), ir.Loc{}, int32(r.ID), 0)
}

func (it *Interp) evExitRegion(r *ir.Region, iters, instrs int64, tid int32) {
	it.emit(uint64(iters), evMeta(EvExitRegion, tid), packI64(instrs), int32(r.ID), 0)
}

func (it *Interp) evLoopIter(r *ir.Region, iter int64, tid int32) {
	it.emit(uint64(iter), evMeta(EvLoopIter, tid), ir.Loc{}, int32(r.ID), 0)
}

func (it *Interp) evEnterFunc(f *ir.Func, callLoc ir.Loc, tid int32) {
	it.emit(0, evMeta(EvEnterFunc, tid), callLoc, int32(f.ID), 0)
}

func (it *Interp) evExitFunc(f *ir.Func, instrs int64, tid int32) {
	it.emit(uint64(instrs), evMeta(EvExitFunc, tid), ir.Loc{}, int32(f.ID), 0)
}

func (it *Interp) evBindVar(v *ir.Var, base uint64, elems int, tid int32) {
	it.emit(base, evMeta(EvBindVar, tid), ir.Loc{}, int32(v.ID), int32(elems))
}

func (it *Interp) evFreeVar(v *ir.Var, base uint64, elems int, tid int32) {
	it.emit(base, evMeta(EvFreeVar, tid), ir.Loc{}, int32(v.ID), int32(elems))
}

func (it *Interp) evLock(id int, tid int32) {
	it.emit(0, evMeta(EvLock, tid), ir.Loc{}, int32(id), 0)
}

func (it *Interp) evUnlock(id int, tid int32) {
	it.emit(0, evMeta(EvUnlock, tid), ir.Loc{}, int32(id), 0)
}

func (it *Interp) evThreadStart(tid, parent int32) {
	it.emit(0, evMeta(EvThreadStart, tid), ir.Loc{}, 0, parent)
}

func (it *Interp) evThreadEnd(tid int32) {
	it.emit(0, evMeta(EvThreadEnd, tid), ir.Loc{}, 0, 0)
}

// sinkOf packs the full sink identity of an access at run time — the walker's
// and the slow path's equivalent of the compile-time TraceInfo operand tables.
func sinkOf(loc ir.Loc, v *ir.Var, tid int32) uint64 {
	return bytecode.PackSink(loc, int32(v.ID)) | bytecode.SinkThread(tid)
}
