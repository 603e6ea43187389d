package profiler

import (
	"fmt"
	"time"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/sig"
)

// StoreKind selects the access-status representation.
type StoreKind uint8

const (
	// StorePerfect uses directly indexed shadow memory ("perfect signature"):
	// no false positives or negatives, higher memory cost (Section 2.3.7).
	StorePerfect StoreKind = iota
	// StoreSignature uses fixed-size approximate signatures (Section 2.3.2).
	StoreSignature
)

// Options configures a profiling run.
type Options struct {
	Store StoreKind
	// Slots is the total number of signature slots, split evenly across
	// workers and across the read/write halves of each worker's cells
	// (Section 2.5.2 splits 1.0E+8 total slots over 16 threads the same
	// way).
	Slots int
	// Skip enables the loop-skipping optimization of Section 2.4.
	Skip bool
	// Workers > 0 enables the parallel pipeline of Section 2.3.3 with that
	// many worker threads; 0 profiles serially in the event callbacks.
	Workers int
	// UseLocked replaces the lock-free queues with mutex-protected ones —
	// the lock-based baseline of Figure 2.9.
	UseLocked bool
	// MT profiles a multi-threaded target (Section 2.3.4): always through
	// the worker pipeline (Workers == 0 means 4), with thread IDs on every
	// dependence, lock/unlock/thread-end as barriers, and no redistribution.
	MT bool
	// ChunkSize is the number of 32-byte access records per chunk (default
	// 1024, i.e. 32 KB handed to a worker at a time).
	ChunkSize int
	// TreeWalk runs the target on the reference tree-walking engine
	// instead of the bytecode VM. The event streams are identical; the
	// walker is kept for differential testing and debugging.
	TreeWalk bool

	// rebalanceInterval is the number of pushed chunks between load
	// rebalancing checks: 0 means the default of 2000 (the paper uses 50000
	// at its much larger workload scale), a negative value disables
	// redistribution. A test seam: only this package's tests set it.
	rebalanceInterval int
}

func (o *Options) defaults() {
	if o.ChunkSize == 0 {
		o.ChunkSize = 1024
	}
	if o.Slots == 0 {
		o.Slots = 1 << 22
	}
	if o.rebalanceInterval == 0 {
		o.rebalanceInterval = 2000
	}
}

// Profiler is an interp.Tracer that profiles data dependences. Use New,
// pass it to interp.New, run the program, then call Result.
type Profiler struct {
	mod *ir.Module
	opt Options

	tab       *ctxTable
	cur       [interp.MaxThreads]int32
	loopStack [interp.MaxThreads][]int32

	regions []*RegionExec // by region ID; nil until first entered
	funcs   map[*ir.Func]int64
	depth   [interp.MaxThreads]int
	total   int64

	// Per-line access counting, hot-path form: a dense counter slice
	// indexed by static memory-operation ID (the opLayout the skip
	// optimization also uses) instead of a per-access map write. opLocs
	// remembers each operation's access location on first touch; Result
	// folds the counters back into the per-line map. spillLines catches
	// the pathological case of an expression node shared between
	// statements (one op observed at two locations).
	lay        opLayout
	lineCounts []int64
	opLocs     []ir.Loc
	spillLines map[ir.Loc]int64

	// Serial mode holds the engine with its concrete store type so the
	// per-access calls (and everything they inline) are direct. Exactly one
	// of engP/engS/pipe is non-nil.
	engP *engine[sig.Perfect, *sig.Perfect]
	engS *engine[sig.Signature, *sig.Signature]
	pipe *pipeline // Options.Workers > 0 or Options.MT

	stopped bool
	dumps   []engineDump

	accesses int64

	// ts is the logical clock dependences are ordered by: events carry no
	// timestamp, the consumer counts the accesses, in stream order.
	ts uint64
}

// New creates a profiler for module m. The module's static memory
// operations are numbered as a side effect.
func New(m *ir.Module, opt Options) *Profiler {
	p := newProfiler(m, opt)
	// One instantiation per store kind: every engine below this switch
	// calls its store directly.
	if opt.Store == StoreSignature {
		p.engS = attach[sig.Signature](p, p.signature)
	} else {
		p.engP = attach[sig.Perfect](p, perfect)
	}
	return p
}

// newProfiler builds a profiler that has no engine yet (see attach).
func newProfiler(m *ir.Module, opt Options) *Profiler {
	if opt.Slots < 0 {
		panic("profiler: Options.Slots must not be negative")
	}
	opt.defaults()
	p := &Profiler{mod: m, opt: opt, tab: &ctxTable{},
		regions: make([]*RegionExec, len(m.Regions)), funcs: map[*ir.Func]int64{}}
	for i := range p.cur {
		p.cur[i] = -1
	}
	nOps := interp.PrepareOps(m)
	// Loop headers use four synthetic negative op IDs per region.
	nRegions := 4*int32(len(m.Regions)) + 4
	p.lay = newOpLayout(nOps)
	p.lineCounts = make([]int64, p.lay.size(nRegions))
	p.opLocs = make([]ir.Loc, len(p.lineCounts))
	return p
}

// attach gives p its engines over store type S, one store from mk per
// engine: the worker pipeline if the options select one, or else the serial
// engine it returns for the caller to hold by its concrete type.
func attach[S any, PS storeOps[S]](p *Profiler, mk func(nshares int) S) *engine[S, PS] {
	if p.opt.MT || p.opt.Workers > 0 {
		p.pipe = newPipeline[S, PS](p, mk)
		return nil
	}
	return newEngine[S, PS](p, mk(1))
}

// signature builds one worker's signature, sized as an equal share of the
// configured total slots across nshares workers (a cell is two slots) and
// numbering that worker's residue class of addresses densely.
func (p *Profiler) signature(nshares int) sig.Signature {
	return sig.MakeSignature(max(p.opt.Slots/(2*nshares), 1), nshares)
}

// perfect builds one worker's shadow memory (nshares is irrelevant: pages
// materialise on demand).
func perfect(int) sig.Perfect { return sig.MakePerfect() }

// countLine counts one access against its source line. The common path is
// one dense-slice increment; the first access of each operation records
// its location, and the (never-expected) case of one operation observed at
// two locations spills to a map.
func (p *Profiler) countLine(op int32, loc ir.Loc) {
	i := p.lay.index(op)
	if p.opLocs[i] != loc {
		if p.opLocs[i].File != 0 {
			if p.spillLines == nil {
				p.spillLines = map[ir.Loc]int64{}
			}
			p.spillLines[loc]++
			return
		}
		p.opLocs[i] = loc
	}
	p.lineCounts[i]++
}

// ProcessBatch implements interp.Tracer: one pass over a flushed event
// chunk, by one of two consumers — batchSerial hands each access straight to
// the devirtualized serial engine, pipeline.routeBatch writes it into its
// owner's chunk. Either way an access takes the packed sink word verbatim
// from the event (the VM's compile-time operand tables built it already), and
// the bookkeeping (contexts, region metrics, line counters) is updated inline
// in stream order, so results do not depend on how the stream was chunked.
// evs is not retained.
func (p *Profiler) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	switch {
	case p.engP != nil:
		batchSerial(p, p.engP, m, evs)
	case p.engS != nil:
		batchSerial(p, p.engS, m, evs)
	default:
		p.pipe.routeBatch(p, m, evs)
	}
}

// batchSerial consumes one event chunk directly into a serial engine: no
// intermediate record buffer, and the load/store calls name the concrete
// store type.
func batchSerial[S any, PS storeOps[S]](p *Profiler, e *engine[S, PS], m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		ev := &evs[i]
		// The kind and thread ride in Sink's low 16 bits; the engine takes
		// the word with the kind byte cleared: file | line | var | thread,
		// the sink identity sig.Entry and the dependence table key on.
		switch kind := uint8(ev.Sink); kind {
		case interp.EvLoad:
			p.accesses++
			p.ts++
			p.countLine(ev.A, ev.Loc)
			ctx := p.cur[ev.Sink>>8&0xFF]
			if e.ops == nil {
				e.loadAcc(ev.Addr, ev.Sink, p.ts, ev.A, ctx)
			} else {
				e.loadSkip(ev.Addr, ev.Sink, p.ts, ev.A, ctx)
			}
		case interp.EvStore:
			p.accesses++
			p.ts++
			p.countLine(ev.A, ev.Loc)
			ctx := p.cur[ev.Sink>>8&0xFF]
			if e.ops == nil {
				e.storeAcc(ev.Addr, ev.Sink&^0xFF, p.ts, ev.A, ctx)
			} else {
				e.storeSkip(ev.Addr, ev.Sink&^0xFF, p.ts, ev.A, ctx)
			}
		case interp.EvFreeVar:
			// Variable lifetime analysis (Section 2.3.5): dead addresses leave
			// the store, so a reused slot builds no false dependence. Removed
			// elements count as accesses (Result.Accesses).
			p.accesses += int64(ev.B)
			e.shadow().Remove(ev.Addr, int(ev.B))
		default:
			p.controlEv(m, ev)
		}
	}
}

// controlEv applies one non-access event's bookkeeping, shared by both
// consumers.
func (p *Profiler) controlEv(m *ir.Module, ev *interp.Ev) {
	tid := ev.Tid()
	switch ev.Kind() {
	case interp.EvEnterRegion:
		re := p.regions[ev.A]
		if re == nil {
			re = &RegionExec{Region: m.Regions[ev.A]}
			p.regions[ev.A] = re
		}
		if re.Region.Kind == ir.RLoop {
			p.loopStack[tid] = append(p.loopStack[tid], p.cur[tid])
		}
	case interp.EvLoopIter:
		// Advance the thread's loop context to a fresh (region, iteration)
		// node.
		ls := p.loopStack[tid]
		parent := int32(-1)
		if len(ls) > 0 {
			parent = ls[len(ls)-1]
		}
		p.cur[tid] = p.tab.add(parent, ev.A)
	case interp.EvExitRegion:
		re := p.regions[ev.A]
		re.Iters += int64(ev.Addr)
		re.Instrs += interp.UnpackI64(ev.Loc)
		if re.Region.Kind == ir.RLoop {
			ls := p.loopStack[tid]
			p.cur[tid] = ls[len(ls)-1]
			p.loopStack[tid] = ls[:len(ls)-1]
		}
	case interp.EvEnterFunc:
		p.depth[tid]++
	case interp.EvExitFunc:
		// Per-function inclusive instruction counts feed the
		// instruction-coverage ranking metric.
		instrs := int64(ev.Addr)
		p.funcs[m.Funcs[ev.A]] += instrs
		p.depth[tid]--
		if p.depth[tid] == 0 {
			p.total += instrs
		}
	}
}

// Stop terminates the worker pipelines (if any). It is idempotent; Result
// calls it internally. Call it directly when the profiled execution
// unwinds with a panic and no result will be produced — otherwise the
// pipeline workers' spin loops outlive the run and burn CPU for the rest
// of the process. Stop itself never panics: a panic on a worker goroutine is
// re-raised by ProcessBatch (at the next chunk hand-over or barrier) or by
// Result, on their caller's goroutine.
func (p *Profiler) Stop() { p.stop() }

// stop terminates the pipelines and returns the engines' merge-time dumps.
func (p *Profiler) stop() []engineDump {
	if p.stopped {
		return p.dumps
	}
	p.stopped = true
	switch {
	case p.pipe != nil:
		p.dumps = p.pipe.finish()
	case p.engP != nil:
		p.dumps = []engineDump{p.engP.dump()}
	default:
		p.dumps = []engineDump{p.engS.dump()}
	}
	return p.dumps
}

// Result terminates the pipeline (if any), merges the thread-local
// dependence maps into the global map (Figure 2.2), and returns the
// profiling result.
func (p *Profiler) Result() *Result {
	lines := make(map[ir.Loc]int64)
	for i, n := range p.lineCounts {
		if n != 0 {
			lines[p.opLocs[i]] += n
		}
	}
	for loc, n := range p.spillLines {
		lines[loc] += n
	}
	regions := make(map[int]*RegionExec)
	for id, re := range p.regions {
		if re != nil {
			regions[id] = re
		}
	}
	res := &Result{
		Mod:         p.mod,
		Regions:     regions,
		Lines:       lines,
		FuncInstrs:  p.funcs,
		TotalInstrs: p.total,
		Accesses:    p.accesses,
	}
	dumps := p.stop()
	if p.pipe != nil {
		p.pipe.reraise() // a worker that panicked left no result to merge
	}
	tables := make([]*depTable, len(dumps))
	for i, d := range dumps {
		tables[i] = d.deps
		res.Skip.add(d.stats)
		res.StoreBytes += d.bytes
	}
	res.Deps = mergeDepTables(tables)
	for d := range res.Deps {
		if d.Reversed {
			res.Races++
		}
	}
	return res
}

func (s *SkipStats) add(o *SkipStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.SkippedReads += o.SkippedReads
	s.SkippedWrite += o.SkippedWrite
	s.DepReads += o.DepReads
	s.DepWrites += o.DepWrites
	s.SkippedDepReads += o.SkippedDepReads
	s.SkippedDepWrite += o.SkippedDepWrite
	s.WouldRAW += o.WouldRAW
	s.WouldWAR += o.WouldWAR
	s.WouldWAW += o.WouldWAW
	s.ShadowSkips += o.ShadowSkips
}

// Run is what one instrumented execution produced.
type Run struct {
	Result *Result
	// Instrs is the number of executed IR statements.
	Instrs int64
	// ExecTime is the wall time of the execution alone, without profiler
	// setup and result merging: the numerator of slowdown figures.
	ExecTime time.Duration
	// CompileTime is the bytecode compile time this run paid (zero on a
	// compile-cache hit and under TreeWalk); CompileHit reports that the
	// shared compile cache already held the program.
	CompileTime time.Duration
	CompileHit  bool
}

// Execute is the one way a module runs under the profiler. The simulated
// address space is drawn from (and recycled through) the shared arena pool,
// maxInstrs bounds the run (0 = unbounded), and the extra tracers observe
// the same event stream as the profiler. A runtime error of the target
// (out-of-range access, exhausted budget, deadlock) comes back as the error,
// after the worker pipeline has been stopped.
func Execute(m *ir.Module, opt Options, maxInstrs int64, extra ...interp.Tracer) (run Run, err error) {
	p := New(m, opt)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("profiler: target program failed: %v", r)
		}
	}()
	return p.execute(maxInstrs, extra), nil
}

// execute runs p's module under p. When the run unwinds with a panic it
// stops the worker pipeline on the way out: the workers' spin loops would
// otherwise outlive the run and burn CPU for the rest of the process.
func (p *Profiler) execute(maxInstrs int64, extra []interp.Tracer) (run Run) {
	defer func() {
		if run.Result == nil {
			p.Stop()
		}
	}()
	var tr interp.Tracer = p
	if len(extra) > 0 {
		tr = &interp.MultiTracer{Tracers: append([]interp.Tracer{p}, extra...)}
	}
	iopts := []interp.Option{interp.WithPool(mem.Default), interp.WithMaxInstrs(maxInstrs)}
	if p.opt.TreeWalk {
		iopts = append(iopts, interp.WithTreeWalk())
	}
	in := interp.New(p.mod, tr, iopts...)
	defer in.Release()
	start := time.Now()
	run.Instrs = in.Run()
	run.ExecTime = time.Since(start)
	run.CompileTime, run.CompileHit = in.CompileTime, in.CompileHit
	run.Result = p.Result()
	return run
}

// Profile profiles module m with the given options and returns the result.
// It panics on a runtime error of the target; use Execute to get it as an
// error.
func Profile(m *ir.Module, opt Options) *Result {
	run, err := Execute(m, opt, 0)
	if err != nil {
		panic(err)
	}
	return run.Result
}
