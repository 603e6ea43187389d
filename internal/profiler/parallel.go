package profiler

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/queue"
)

// pipeline is the producer/consumer architecture of Figure 2.2: the
// event-producing thread routes every memory access into the chunk of the
// worker that owns its address — an address has exactly one owner at a time,
// so the temporal order per address is preserved — and hands full chunks over
// lock-free SPSC queues. Workers run Algorithm 2 on their own store and record
// dependences in thread-local packed tables that are merged at the end.
//
// There is one router (routeBatch) and one kind of worker for both target
// kinds; a multi-threaded target differs only in that its engines record
// thread IDs. Section 2.3.4 gives each target thread a producer, and so needs
// lock barriers (Figure 2.4c) to order their chunks and no redistribution.
// Here the interpreter serialises the simulated threads into one totally
// ordered event stream with one producer, so the stream the router sees
// already is the order in which the accesses happened: nothing needs a
// barrier, and a migration orders an MT stream exactly as a sequential one.
//
// The pipeline itself is not generic. Only a worker's loop names the store
// type (runWorker), so each instantiation's hot loop is devirtualized like
// the serial engine's.
type pipeline struct {
	workers []*pworker
	cur     []*chunk // the partial chunk of each worker
	wg      sync.WaitGroup

	chunkSize int

	// fault holds the value a worker goroutine panicked with until the
	// producer's goroutine re-raises it (reraise); the first one wins.
	fault atomic.Pointer[any]

	// Load balancing (Section 2.3.3): sampled dynamic access statistics
	// and a redistribution map that overrides the modulo assignment. Only
	// 1 in 1<<sampleShift accesses is counted — the balancer needs the
	// relative ordering of the heaviest addresses, not exact counts, and a
	// per-access map write is a measurable hot-path cost. The sampling
	// decision comes from a (deterministically seeded) xorshift stream,
	// not a fixed stride, so periodic access patterns whose length shares
	// a factor with the sampling interval cannot systematically hide an
	// address from the balancer.
	interval     int // pushed chunks between checks; 0 = never
	counts       map[uint64]int64
	rng          uint64
	redist       map[uint64]int
	chunksPushed int
	// rebalances counts performed redistributions (observability).
	rebalances int
}

// chunk is the unit of hand-over: a run of access records, or (mig != nil)
// one step of a redistribution.
type chunk struct {
	recs []rec
	mig  *migration
	in   bool // mig is installed here (else extracted)
}

type pworker struct {
	q       *queue.SPSC[*chunk]
	lq      *queue.LockedQueue[*chunk] // lock-based baseline
	recycle *queue.SPSC[*chunk]
	done    atomic.Bool

	// pushed is owned by the producer, consumed by the worker; a worker has
	// drained when they are equal.
	pushed   uint64
	consumed atomic.Uint64

	dump engineDump // set by the worker on exit
}

func (w *pworker) pop() (*chunk, bool) {
	if w.lq != nil {
		return w.lq.TryPop()
	}
	return w.q.TryPop()
}

func (w *pworker) push(c *chunk) {
	w.pushed++
	if w.lq != nil {
		w.lq.Push(c)
		return
	}
	for !w.q.TryPush(c) {
		runtime.Gosched()
	}
}

// drain waits until the worker has consumed every chunk pushed so far.
func (w *pworker) drain() {
	for w.consumed.Load() != w.pushed {
		runtime.Gosched()
	}
}

// sampleShift sets the access-count sampling rate for load rebalancing:
// 1 in 2^6 = 64 accesses is counted.
const sampleShift = 6

func newPipeline[S any, PS storeOps[S]](p *Profiler, mk func(nshares int) S) *pipeline {
	n := p.opt.Workers
	pl := &pipeline{chunkSize: p.opt.ChunkSize}
	if p.opt.rebalanceInterval > 0 {
		pl.interval = p.opt.rebalanceInterval
		pl.counts = make(map[uint64]int64)
		pl.rng = 0x9E3779B97F4A7C15
		pl.redist = make(map[uint64]int)
	}
	for i := 0; i < n; i++ {
		w := &pworker{recycle: queue.NewSPSC[*chunk](64)}
		if p.opt.UseLocked {
			w.lq = &queue.LockedQueue[*chunk]{}
		} else {
			w.q = queue.NewSPSC[*chunk](64)
		}
		pl.workers = append(pl.workers, w)
		pl.cur = append(pl.cur, pl.newChunk())
		pl.wg.Add(1)
		go runWorker(pl, w, newEngine[S, PS](p, mk(n)))
	}
	return pl
}

func (pl *pipeline) newChunk() *chunk {
	return &chunk{recs: make([]rec, 0, pl.chunkSize)}
}

// next waits for the worker's next chunk; nil means the pipeline has finished
// and the queue is empty.
func (w *pworker) next() *chunk {
	for {
		if c, ok := w.pop(); ok {
			return c
		}
		if w.done.Load() {
			// done is set after the final flush, so one more look cannot
			// miss a chunk.
			c, _ := w.pop()
			return c
		}
		runtime.Gosched()
	}
}

func runWorker[S any, PS storeOps[S]](pl *pipeline, w *pworker, e *engine[S, PS]) {
	defer pl.wg.Done()
	defer func() { w.dump = e.dump() }()
	n := uint64(0) // chunks consumed
	defer func() {
		// A panic in the engine or its store (an address beyond the shadow
		// memory's range, say) must not kill the process from a goroutine no
		// caller can recover on: keep it for the producer's goroutine, and
		// keep taking chunks, unread, so that push and drain cannot hang.
		if r := recover(); r != nil {
			pl.fault.CompareAndSwap(nil, &r)
			for {
				n++ // the chunk that panicked, then every later one
				w.consumed.Store(n)
				if w.next() == nil {
					return
				}
			}
		}
	}()
	for {
		c := w.next()
		switch {
		case c == nil:
			return
		case c.mig == nil:
			e.consume(c.recs)
			c.recs = c.recs[:0]
			w.recycle.TryPush(c) // recycled chunks are reused by the producer
		case c.in:
			e.migrateIn(c.mig)
		default:
			e.migrateOut(c.mig)
		}
		n++
		w.consumed.Store(n)
	}
}

// reraise panics, on the caller's goroutine — the producer's — with the value
// a worker goroutine panicked with, once per value.
func (pl *pipeline) reraise() {
	if pl.fault.Load() != nil {
		panic(*pl.fault.Swap(nil))
	}
}

// owner applies the modulo distribution (Formula 2.1) unless overridden by
// the redistribution map. A worker's signature is sized and numbered for this
// residue class (Profiler.signature).
func (pl *pipeline) owner(addr uint64) int {
	if len(pl.redist) > 0 {
		if w, ok := pl.redist[addr]; ok {
			return w
		}
	}
	return int(addr % uint64(len(pl.workers)))
}

// routeBatch is the router: one pass over a flushed event chunk that does
// the profiler's bookkeeping in stream order (line counters, the access
// clock, contexts and region metrics, the balancer's sample) and writes each
// access once, straight into its owner's chunk. An access record is the
// event's own Sink word (kind byte included) plus what only the profiler
// knows: the timestamp and the loop context.
func (pl *pipeline) routeBatch(p *Profiler, m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		ev := &evs[i]
		switch kind := uint8(ev.Sink); kind {
		case interp.EvLoad, interp.EvStore:
			p.accesses++
			p.ts++
			p.countLine(ev.A, ev.Loc)
			if pl.interval > 0 {
				pl.rng ^= pl.rng << 13
				pl.rng ^= pl.rng >> 7
				pl.rng ^= pl.rng << 17
				if pl.rng&(1<<sampleShift-1) == 0 {
					pl.counts[ev.Addr]++
				}
			}
			pl.put(ev.Addr, ev.Sink, p.ts, ev.A, p.cur[ev.Sink>>8&0xFF])
		case interp.EvFreeVar:
			// Each address is removed at its owner only: a range clear on
			// another worker would erase an aliased slot of its signature.
			// Removed elements count as accesses (Result.Accesses), as on
			// the serial path.
			p.accesses += int64(ev.B)
			for a, end := ev.Addr, ev.Addr+uint64(ev.B); a < end; a++ {
				pl.put(a, uint64(recRemove), 0, 0, 0)
			}
		default:
			p.controlEv(m, ev)
		}
	}
}

// put writes one record into the next slot of its owner's chunk — field by
// field, like interp's emit and for its reason: a rec argument would be built
// on the stack and copied — and hands the chunk over when full. A partial
// chunk always has room.
func (pl *pipeline) put(addr, info, ts uint64, op, ctx int32) {
	w := pl.owner(addr)
	c := pl.cur[w]
	n := len(c.recs)
	c.recs = c.recs[:n+1]
	r := &c.recs[n]
	r.addr, r.info, r.ts, r.op, r.ctx = addr, info, ts, op, ctx
	if n+1 == cap(c.recs) {
		pl.reraise()
		pl.flush(w)
		if pl.interval > 0 && pl.chunksPushed%pl.interval == 0 {
			pl.rebalance()
		}
	}
}

func (pl *pipeline) flush(w int) {
	pw := pl.workers[w]
	pw.push(pl.cur[w])
	pl.chunksPushed++
	// Reuse a recycled chunk when available.
	if c, ok := pw.recycle.TryPop(); ok {
		pl.cur[w] = c
	} else {
		pl.cur[w] = pl.newChunk()
	}
}

// flushPartial hands over every non-empty partial chunk.
func (pl *pipeline) flushPartial() {
	for w, c := range pl.cur {
		if len(c.recs) > 0 {
			pl.flush(w)
		}
	}
}

// rebalanceTopK is the number of heaviest addresses the balancer
// distributes round-robin across the workers at each rebalance.
const rebalanceTopK = 10

// topAddrs selects the k heaviest sampled addresses, ordered heaviest
// first, with a bounded min-heap: O(n log k) over the sample map instead of
// sorting every sampled address at every rebalance interval. Equal counts
// rank by address (lower first), in the selection as in the order, so the
// result does not depend on the map's iteration order — under a signature
// store a different redistribution is a different dependence file.
func topAddrs(counts map[uint64]int64, k int) []addrCount {
	top := make([]addrCount, 0, k)
	for a, n := range counts {
		c := addrCount{a, n}
		if len(top) < k {
			top = append(top, c)
			if len(top) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(top, i)
				}
			}
			continue
		}
		if top[0].lighter(c) {
			top[0] = c
			siftDown(top, 0)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[j].lighter(top[i]) })
	return top
}

type addrCount struct {
	addr uint64
	n    int64
}

// lighter orders sampled addresses by count, ties by descending address.
func (a addrCount) lighter(b addrCount) bool {
	return a.n < b.n || a.n == b.n && a.addr > b.addr
}

// siftDown restores the min-heap property (lightest on top) at index i.
func siftDown(h []addrCount, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].lighter(h[min]) {
			min = l
		}
		if r < len(h) && h[r].lighter(h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// rebalance checks whether the ten most heavily accessed addresses are
// evenly distributed over the workers, and migrates them (with their
// signature state) if not. Afterwards every sampled count is halved
// (dropping entries that reach zero): without decay, addresses hot early
// in the run would pin the redistribution map for the rest of the
// execution even after going cold, because later-phase addresses could
// never catch up with the all-time counters.
func (pl *pipeline) rebalance() {
	top := topAddrs(pl.counts, rebalanceTopK)
	w := len(pl.workers)
	for rank, t := range top {
		want := rank % w
		if pl.owner(t.addr) == want {
			continue
		}
		pl.migrate(t.addr, pl.owner(t.addr), want)
		pl.redist[t.addr] = want
		pl.rebalances++
	}
	for a, n := range pl.counts {
		if n >>= 1; n == 0 {
			delete(pl.counts, a)
		} else {
			pl.counts[a] = n
		}
	}
}

// migrate moves the signature state of addr from worker old to worker new,
// preserving the temporal order: all already-produced accesses are flushed
// to the old worker, the state is extracted after the old worker catches
// up, and only then is it installed at the new owner.
func (pl *pipeline) migrate(addr uint64, oldW, newW int) {
	if oldW == newW {
		return
	}
	pl.flush(oldW)
	pl.flush(newW)
	m := &migration{addr: addr}
	pl.workers[oldW].push(&chunk{mig: m})
	pl.workers[oldW].drain()
	pl.workers[newW].push(&chunk{mig: m, in: true})
}

// finish flushes remaining chunks, stops the workers, and returns their
// engines' merge-time dumps. It does not re-raise a worker's panic: Stop runs
// while another panic unwinds; Result re-raises after it.
func (pl *pipeline) finish() []engineDump {
	pl.flushPartial()
	for _, w := range pl.workers {
		w.done.Store(true)
	}
	pl.wg.Wait()
	dumps := make([]engineDump, len(pl.workers))
	for i, w := range pl.workers {
		dumps[i] = w.dump
	}
	return dumps
}

// rebalanceCount reports performed redistributions (observability).
func (pl *pipeline) rebalanceCount() int { return pl.rebalances }
