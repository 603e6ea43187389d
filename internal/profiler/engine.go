package profiler

import (
	"discopop/internal/ir"
	"discopop/internal/sig"
)

// engine executes the signature-based dependence-detection algorithm
// (Algorithm 2) over a stream of access records. One engine exists per
// worker thread (or one in total for serial profiling); each owns a store
// holding the read and write status of every address it sees (the read and
// write signatures of Figure 2.2, fused into one sig.Cell per address) and a
// thread-local dependence table.
//
// The engine is generic over the concrete store type: the per-access Cell
// resolution of the hot loop compiles to a direct call into sig.Perfect or
// sig.Signature instead of dynamic dispatch through an interface. The store
// is embedded by value so each store kind gets its own instantiation
// (distinct gcshapes) and the engine, its store, and its skip state share
// one allocation.

// Access-record kinds. They ride in the low byte of rec.info — the byte the
// packed sink layout keeps zero and interp.Ev.Sink already uses for the
// event kind — and the first two are the event kinds themselves
// (interp.EvLoad == recLoad, interp.EvStore == recStore), so the router
// copies an access event's Sink word into its record verbatim.
const (
	recLoad   uint8 = iota
	recStore        // the engine sees info with the kind byte cleared
	recRemove       // variable lifetime analysis: drop status of addr
)

// rec is one access record as buffered in chunks: 32 bytes, no pointer, so
// a chunk's backing array is allocated noscan and a record is one half
// cache line written once by the router and read once by its worker.
type rec struct {
	addr uint64
	info uint64 // kind (bits 0..7) | packed sink location/variable/thread
	ts   uint64
	op   int32
	ctx  int32
}

// migration carries per-address signature state between workers when the
// load balancer reassigns a hot address (Section 2.3.3). It travels as a
// chunk of its own (chunk.mig), not as a record.
type migration struct {
	addr uint64
	cell sig.Cell
}

// An access's sink identity is packed as file(10) | line(22) | var(16) |
// thread(8) | 0(8). The file field is always >= 1, so packed info is
// non-zero and a zero sig.Entry means "empty". The layout is owned by
// bytecode.PackSink and bytecode.SinkThread; rec.info arrives pre-packed in
// interp.Ev.Sink.
func unpackLoc(info uint64) ir.Loc {
	return ir.Loc{File: int32(info >> 54), Line: int32((info >> 32) & 0x3FFFFF)}
}

func unpackVar(info uint64) int32    { return int32((info >> 16) & 0xFFFF) }
func unpackThread(info uint64) int16 { return int16((info >> 8) & 0xFF) }

// opSkip is the per-memory-operation state of the skipping optimization:
// lastAddr plus the lastStatusRead/lastStatusWrite accessInfo values
// (Section 2.4). The zero value is the "never profiled" initial state,
// because address 0 is never used by target programs.
//
// Beyond the paper's two conditions we also remember how the dependences
// the operation last built were classified w.r.t. loop carrying
// (lastRCarry/lastWCarry): our dependence identity includes the carrying
// loop, which the paper's 3-byte status slots cannot express, so skipping
// must additionally require that re-profiling would yield the same
// classification. In steady state the classification is stable, so skip
// rates are unaffected.
type opSkip struct {
	lastAddr   uint64
	lastR      int32
	lastW      int32
	lastRCarry int32
	lastWCarry int32
	// lastOrder records whether the read status predated the write status
	// (re.TS < we.TS): WAW dependences are built only for consecutive
	// writes, so their existence depends on this order, not just on which
	// operations the statuses name.
	lastOrder bool
}

// opLayout maps static memory-operation IDs — positive ref/parameter ops
// and the synthetic negative loop-header ops — into one dense index space:
// positive op o at index o, negative op -k at index nPosOps+k. It is the
// single source of truth for this layout, shared by the skip engine's
// per-op state and the profiler's line counters.
type opLayout struct {
	nPosOps int32
}

func newOpLayout(nOps int32) opLayout { return opLayout{nPosOps: nOps + 1} }

func (l opLayout) index(op int32) int32 {
	if op >= 0 {
		return op
	}
	return l.nPosOps + (-op)
}

// size returns the dense slice length covering nOps positive ops plus
// nRegionOps synthetic negative ops.
func (l opLayout) size(nRegionOps int32) int { return int(l.nPosOps) + int(nRegionOps) + 1 }

// storeOps constrains PS to "pointer to concrete store type S" with the
// per-access operations, so that a generic engine instantiated for S calls
// them directly.
type storeOps[S any] interface {
	*S
	// Cell resolves the read/write status pair of addr.
	Cell(addr uint64) *sig.Cell
	// Remove clears the status of the n addresses starting at addr.
	Remove(addr uint64, n int)
	MemBytes() int64
}

// engineDump is the non-generic view of a finished engine that Result
// merges: the packed dependence table, the skip counters, and the store
// footprint.
type engineDump struct {
	deps  *depTable
	stats *SkipStats
	bytes int64
}

type engine[S any, PS storeOps[S]] struct {
	st   S
	deps depTable
	tab  *ctxTable
	mt   bool

	// Skip optimization (enabled when ops != nil), indexed via lay.
	ops   []opSkip
	lay   opLayout
	stats SkipStats
}

// newEngine builds one of p's engines over the store st. With Options.Skip
// the engine holds one skip state per static memory operation, laid out
// like p's line counters.
func newEngine[S any, PS storeOps[S]](p *Profiler, st S) *engine[S, PS] {
	e := &engine[S, PS]{
		st:   st,
		deps: newDepTable(),
		tab:  p.tab,
		mt:   p.opt.MT,
	}
	if p.opt.Skip {
		e.lay = p.lay
		e.ops = make([]opSkip, len(p.lineCounts))
	}
	return e
}

func (e *engine[S, PS]) shadow() PS { return PS(&e.st) }

// dump exposes the engine's merge-time products.
func (e *engine[S, PS]) dump() engineDump {
	return engineDump{deps: &e.deps, stats: &e.stats, bytes: e.shadow().MemBytes()}
}

func (e *engine[S, PS]) opIdx(op int32) int32 { return e.lay.index(op) }

// depKey assembles the packed identity of a dependence of type t whose sink
// is the current access (info, ts) and whose source is the status entry src,
// without its loop-carried bits. The dependence's variable is the one
// accessed at the sink: the sink access knows its variable exactly, whereas
// the source's identity comes from the (possibly aliased) signature slot —
// attributing the variable from the sink is what keeps signature false
// positives bounded by line-pair combinations rather than by colliding
// address pairs (compare Figure 2.1: "1:65 NOM {WAR 1:67|temp2}" names
// temp2, the variable written at the 1:65 sink).
//
// The identity comes directly from the packed access info words — the
// sink/source location halves are single shifts of info/src.Info — and is
// merged into the packed accumulator; no Dep struct or map insert exists on
// this path. src points into the store's cell: a 24-byte sig.Entry passed by
// value through the calls below is copied at every level.
func depKey(t DepType, info, ts uint64, src *sig.Entry, mt bool) (hi, lo uint64) {
	hi = info &^ 0xFFFFFFFF // sink file|line in the upper half
	lo = uint64(t) << depTypeShift
	if t != INIT {
		hi |= src.Info >> 32 // source file|line in the lower half
		lo |= (info >> 16 & 0xFFFF) << depVarShift
		if mt {
			lo |= depHasThrBit |
				(info>>8&0xFF)<<depSinkThrShift |
				(src.Info>>8&0xFF)<<depSrcThrShift
		}
		if ts < src.TS {
			// The sink was observed before its source: the accesses were
			// not mutually exclusive — a potential data race (§2.3.4).
			lo |= depReversedBit
		}
	}
	return hi, lo
}

// carriedBits marks a dependence as carried by loop region reg.
func carriedBits(reg int32) uint64 {
	return depCarriedBit | uint64(uint32(reg+1))&depCarryMask
}

// carryRegion returns the loop carrying a would-be dependence between the
// current context and a status entry's context: its region ID, or -1 when the
// dependence is not loop-carried or there is no entry (present == false). It
// is written to stay under the inlining budget, so that the equal-context
// test — source and sink in one iteration, never carried — is made at the
// call site and costs no call (go build -gcflags=-m says whether it still
// inlines; as a call of its own in loadSkip/storeSkip it costs what skipping
// saves).
func (e *engine[S, PS]) carryRegion(cur, src int32, present bool) (reg int32) {
	reg = -1
	if present && cur != src {
		reg = e.tab.carriedBy(cur, src)
	}
	return reg
}

// insertDep builds and merges one dependence whose sink is the current access
// (info, ts), whose source is the status entry src and which loop region
// carry carries (-1: none; see carryRegion).
func (e *engine[S, PS]) insertDep(t DepType, info, ts uint64, src *sig.Entry, carry int32) {
	hi, lo := depKey(t, info, ts, src, e.mt)
	if carry >= 0 {
		lo |= carriedBits(carry)
	}
	e.deps.add(hi, lo, 1)
}

// loadAcc is the read half of Algorithm 2 without skip state. The access
// identity arrives in registers instead of through a rec, so the batched
// serial consumer pays no record round trip, and the RAW is keyed from the
// cell in place. Callers must ensure e.ops == nil (skip disabled).
func (e *engine[S, PS]) loadAcc(addr, info, ts uint64, op, ctx int32) {
	e.stats.Reads++
	c := e.shadow().Cell(addr)
	if w := &c.W; !w.Empty() {
		e.stats.DepReads++
		// insertDep by hand: the most frequent dependence of a run gets its
		// key built here, with the type a constant, and costs one call less.
		hi, lo := depKey(RAW, info, ts, w, e.mt)
		if reg := e.carryRegion(ctx, w.Ctx, true); reg >= 0 {
			lo |= carriedBits(reg)
		}
		e.deps.add(hi, lo, 1)
	}
	c.R = sig.Entry{Info: info, Ctx: ctx, Op: op, TS: ts}
}

// storeAcc is the write half of Algorithm 2 without skip state (see
// loadAcc). Following the evaluation setup (Section 2.5.2), a WAW
// dependence is built only for consecutive writes to the same address,
// i.e. when no read intervened.
func (e *engine[S, PS]) storeAcc(addr, info, ts uint64, op, ctx int32) {
	e.stats.Writes++
	c := e.shadow().Cell(addr)
	r, w := &c.R, &c.W
	if w.Empty() {
		e.insertDep(INIT, info, ts, w, -1)
	} else {
		e.stats.DepWrites++
		if !r.Empty() {
			e.insertDep(WAR, info, ts, r, e.carryRegion(ctx, r.Ctx, true))
		}
		if r.Empty() || r.TS < w.TS {
			e.insertDep(WAW, info, ts, w, e.carryRegion(ctx, w.Ctx, true))
		}
	}
	*w = sig.Entry{Info: info, Ctx: ctx, Op: op, TS: ts}
}

// consume runs one chunk of access records through Algorithm 2: the worker
// side of the pipeline, shaped like batchSerial — one call per chunk, the
// skip test hoisted out of the per-record path, the store and the dependence
// accumulator staying hot across iterations.
func (e *engine[S, PS]) consume(rs []rec) {
	if e.ops == nil {
		for i := range rs {
			r := &rs[i]
			switch uint8(r.info) {
			case recLoad:
				e.loadAcc(r.addr, r.info, r.ts, r.op, r.ctx)
			case recStore:
				e.storeAcc(r.addr, r.info&^0xFF, r.ts, r.op, r.ctx)
			default:
				e.shadow().Remove(r.addr, 1)
			}
		}
		return
	}
	for i := range rs {
		r := &rs[i]
		switch uint8(r.info) {
		case recLoad:
			e.loadSkip(r.addr, r.info, r.ts, r.op, r.ctx)
		case recStore:
			e.storeSkip(r.addr, r.info&^0xFF, r.ts, r.op, r.ctx)
		default:
			e.shadow().Remove(r.addr, 1)
		}
	}
}

// migrateOut extracts and clears the status of m.addr (redistribution).
func (e *engine[S, PS]) migrateOut(m *migration) {
	c := e.shadow().Cell(m.addr)
	m.cell = *c
	*c = sig.Cell{}
}

// migrateIn installs the migrated status of m.addr. Half by half: under a
// signature the new owner's slot may hold a colliding address's status,
// which an empty half must not erase.
func (e *engine[S, PS]) migrateIn(m *migration) {
	c := e.shadow().Cell(m.addr)
	if !m.cell.R.Empty() {
		c.R = m.cell.R
	}
	if !m.cell.W.Empty() {
		c.W = m.cell.W
	}
}

// loadSkip is loadAcc under the skip conditions of Section 2.4: a read is
// skipped — no dependence is built — iff its operation's lastAddr matches,
// the cell's statusRead/statusWrite name the operations remembered as
// lastStatusRead/lastStatusWrite, and the RAW it would build is carried by
// the loop remembered for it. That loop is resolved once per access and
// serves the comparison, the remembered state and the dependence insert.
// Callers must ensure e.ops != nil.
func (e *engine[S, PS]) loadSkip(addr, info, ts uint64, op, ctx int32) {
	e.stats.Reads++
	c := e.shadow().Cell(addr)
	wouldRAW := !c.W.Empty()
	if wouldRAW {
		e.stats.DepReads++
	}
	st := &e.ops[e.opIdx(op)]
	wc := e.carryRegion(ctx, c.W.Ctx, wouldRAW)
	if st.lastAddr == addr && st.lastR == c.R.Op && st.lastW == c.W.Op && st.lastWCarry == wc {
		e.stats.SkippedReads++
		if wouldRAW {
			e.stats.SkippedDepReads++
			e.stats.WouldRAW++
		}
		if c.R.Op == op && c.R.Ctx == ctx {
			// Special case (§2.4.3): the shadow update would be a no-op
			// re-recording of the same operation in the same iteration
			// context.
			e.stats.ShadowSkips++
			return
		}
	} else {
		st.lastAddr = addr
		st.lastR = c.R.Op
		st.lastW = c.W.Op
		st.lastWCarry = wc
		if wouldRAW {
			e.insertDep(RAW, info, ts, &c.W, wc)
		}
	}
	c.R = sig.Entry{Info: info, Ctx: ctx, Op: op, TS: ts}
}

// storeSkip is storeAcc under the skip conditions of Section 2.4 (see
// loadSkip): a write additionally remembers the carrying loop of its WAR and
// whether the read status predates the write status.
func (e *engine[S, PS]) storeSkip(addr, info, ts uint64, op, ctx int32) {
	e.stats.Writes++
	c := e.shadow().Cell(addr)
	hasR, hasW := !c.R.Empty(), !c.W.Empty()
	order := c.R.TS < c.W.TS
	wouldWAR := hasW && hasR
	wouldWAW := hasW && (!hasR || order)
	if hasW {
		e.stats.DepWrites++ // a WAR, a WAW or both
	}
	st := &e.ops[e.opIdx(op)]
	rc := e.carryRegion(ctx, c.R.Ctx, hasR)
	wc := e.carryRegion(ctx, c.W.Ctx, hasW)
	if st.lastAddr == addr && st.lastR == c.R.Op && st.lastW == c.W.Op &&
		st.lastRCarry == rc && st.lastWCarry == wc && st.lastOrder == order {
		e.stats.SkippedWrite++
		if hasW {
			e.stats.SkippedDepWrite++
		}
		if wouldWAR {
			e.stats.WouldWAR++
		}
		if wouldWAW {
			e.stats.WouldWAW++
		}
		if c.W.Op == op && c.W.Ctx == ctx {
			e.stats.ShadowSkips++
			return
		}
	} else {
		*st = opSkip{lastAddr: addr, lastR: c.R.Op, lastW: c.W.Op,
			lastRCarry: rc, lastWCarry: wc, lastOrder: order}
		if !hasW {
			e.insertDep(INIT, info, ts, &c.W, -1)
		}
		if wouldWAR {
			e.insertDep(WAR, info, ts, &c.R, rc)
		}
		if wouldWAW {
			e.insertDep(WAW, info, ts, &c.W, wc)
		}
	}
	c.W = sig.Entry{Info: info, Ctx: ctx, Op: op, TS: ts}
}
