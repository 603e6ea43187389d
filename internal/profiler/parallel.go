package profiler

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"discopop/internal/queue"
)

// parallelPipe implements the producer/consumer architecture of Figure 2.2
// for sequential target programs: the main (event-producing) thread sorts
// memory accesses into per-worker chunks — a memory address is owned by
// exactly one worker so the temporal order per address is preserved — and
// pushes full chunks into lock-free SPSC queues. Workers run Algorithm 2 on
// their own store and record dependences in thread-local packed
// tables that are merged at the end.
//
// The pipe is generic over the store type for the same reason the engine
// is: each instantiation owns engines whose hot loop is fully devirtualized.

type chunk struct {
	recs []rec
}

type pworker[S any, PS storeOps[S]] struct {
	id      int
	q       *queue.SPSC[*chunk]
	lq      *queue.LockedQueue[*chunk] // lock-based baseline
	recycle *queue.SPSC[*chunk]
	eng     *engine[S, PS]
	done    atomic.Bool
}

func (w *pworker[S, PS]) pop() (*chunk, bool) {
	if w.lq != nil {
		return w.lq.TryPop()
	}
	return w.q.TryPop()
}

func (w *pworker[S, PS]) push(c *chunk) {
	if w.lq != nil {
		w.lq.Push(c)
		return
	}
	for !w.q.TryPush(c) {
		runtime.Gosched()
	}
}

type parallelPipe[S any, PS storeOps[S]] struct {
	p       *Profiler
	workers []*pworker[S, PS]
	cur     []*chunk
	wg      sync.WaitGroup

	// Load balancing (Section 2.3.3): sampled dynamic access statistics
	// and a redistribution map that overrides the modulo assignment. Only
	// 1 in 1<<sampleShift accesses is counted — the balancer needs the
	// relative ordering of the heaviest addresses, not exact counts, and a
	// per-access map write is a measurable hot-path cost. The sampling
	// decision comes from a (deterministically seeded) xorshift stream,
	// not a fixed stride, so periodic access patterns whose length shares
	// a factor with the sampling interval cannot systematically hide an
	// address from the balancer.
	counts       map[uint64]int64
	rng          uint64
	redist       map[uint64]int
	chunksPushed int
	// Rebalances counts performed redistributions (observability).
	rebalances int
}

// sampleShift sets the access-count sampling rate for load rebalancing:
// 1 in 2^6 = 64 accesses is counted.
const sampleShift = 6

func newParallelPipe[S any, PS storeOps[S]](p *Profiler, mk func(nshares int) S) *parallelPipe[S, PS] {
	w := p.opt.Workers
	pp := &parallelPipe[S, PS]{
		p:      p,
		counts: make(map[uint64]int64),
		rng:    0x9E3779B97F4A7C15,
		redist: make(map[uint64]int),
	}
	for i := 0; i < w; i++ {
		pw := &pworker[S, PS]{
			id:      i,
			recycle: queue.NewSPSC[*chunk](64),
			eng:     newEngine[S, PS](p, mk(w)),
		}
		if p.opt.UseLocked {
			pw.lq = &queue.LockedQueue[*chunk]{}
		} else {
			pw.q = queue.NewSPSC[*chunk](64)
		}
		pp.workers = append(pp.workers, pw)
		pp.cur = append(pp.cur, &chunk{recs: make([]rec, 0, p.opt.ChunkSize)})
		pp.wg.Add(1)
		go pp.runWorker(pw)
	}
	return pp
}

func (pp *parallelPipe[S, PS]) runWorker(w *pworker[S, PS]) {
	defer pp.wg.Done()
	for {
		c, ok := w.pop()
		if !ok {
			if w.done.Load() {
				// Drain once more to avoid racing the final flush.
				if c, ok = w.pop(); !ok {
					return
				}
			} else {
				runtime.Gosched()
				continue
			}
		}
		for i := range c.recs {
			w.eng.process(&c.recs[i])
		}
		c.recs = c.recs[:0]
		w.recycle.TryPush(c) // recycled chunks are reused by the producer
	}
}

// owner applies the modulo distribution (Formula 2.1) unless overridden by
// the redistribution map.
func (pp *parallelPipe[S, PS]) owner(addr uint64) int {
	if len(pp.redist) > 0 {
		if w, ok := pp.redist[addr]; ok {
			return w
		}
	}
	return int(addr % uint64(len(pp.workers)))
}

func (pp *parallelPipe[S, PS]) produce(r rec) {
	if r.kind == recLoad || r.kind == recStore {
		pp.rng ^= pp.rng << 13
		pp.rng ^= pp.rng >> 7
		pp.rng ^= pp.rng << 17
		if pp.rng&(1<<sampleShift-1) == 0 {
			pp.counts[r.addr]++
		}
	}
	w := pp.owner(r.addr)
	c := pp.cur[w]
	c.recs = append(c.recs, r)
	if len(c.recs) == cap(c.recs) {
		pp.flush(w)
		if pp.p.opt.RebalanceInterval > 0 && pp.chunksPushed%pp.p.opt.RebalanceInterval == 0 {
			pp.rebalance()
		}
	}
}

// produceBatch routes one flushed chunk of records. Routing is per-address,
// so the batch is walked record by record; the win over the per-event path
// is upstream (one pipeline call per chunk) and downstream (workers consume
// whole chunks), not here.
func (pp *parallelPipe[S, PS]) produceBatch(rs []rec) {
	for i := range rs {
		pp.produce(rs[i])
	}
}

func (pp *parallelPipe[S, PS]) flush(w int) {
	pw := pp.workers[w]
	pw.push(pp.cur[w])
	pp.chunksPushed++
	// Reuse a recycled chunk when available.
	if c, ok := pw.recycle.TryPop(); ok {
		pp.cur[w] = c
	} else {
		pp.cur[w] = &chunk{recs: make([]rec, 0, pp.p.opt.ChunkSize)}
	}
}

// rebalanceTopK is the number of heaviest addresses the balancer
// distributes round-robin across the workers at each rebalance.
const rebalanceTopK = 10

// topAddrs selects the k heaviest sampled addresses, ordered heaviest
// first, with a bounded min-heap: O(n log k) over the sample map instead of
// sorting every sampled address at every rebalance interval.
func topAddrs(counts map[uint64]int64, k int) []addrCount {
	top := make([]addrCount, 0, k)
	for a, n := range counts {
		if len(top) < k {
			top = append(top, addrCount{a, n})
			if len(top) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(top, i)
				}
			}
			continue
		}
		if n > top[0].n {
			top[0] = addrCount{a, n}
			siftDown(top, 0)
		}
	}
	// Heaviest first for rank assignment (ties broken by address so the
	// order is deterministic across runs).
	sort.Slice(top, func(i, j int) bool {
		if top[i].n != top[j].n {
			return top[i].n > top[j].n
		}
		return top[i].addr < top[j].addr
	})
	return top
}

type addrCount struct {
	addr uint64
	n    int64
}

// siftDown restores the min-heap property (ordered by count) at index i.
func siftDown(h []addrCount, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].n < h[min].n {
			min = l
		}
		if r < len(h) && h[r].n < h[min].n {
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
func (pp *parallelPipe[S, PS]) rebalance() {
	top := topAddrs(pp.counts, rebalanceTopK)
	w := len(pp.workers)
	for rank, t := range top {
		want := rank % w
		if pp.owner(t.addr) == want {
			continue
		}
		pp.migrate(t.addr, pp.owner(t.addr), want)
		pp.redist[t.addr] = want
		pp.rebalances++
	}
	for a, n := range pp.counts {
		if n >>= 1; n == 0 {
			delete(pp.counts, a)
		} else {
			pp.counts[a] = n
		}
	}
}

// migrate moves the signature state of addr from worker old to worker new,
// preserving the temporal order: all already-produced accesses are flushed
// to the old worker, the state is extracted after the old worker catches
// up, and only then is it installed at the new owner.
func (pp *parallelPipe[S, PS]) migrate(addr uint64, oldW, newW int) {
	if oldW == newW {
		return
	}
	pp.flush(oldW)
	pp.flush(newW)
	m := &migration{done: make(chan struct{})}
	pp.workers[oldW].push(&chunk{recs: []rec{{addr: addr, kind: recMigOut, mig: m}}})
	<-m.done
	pp.workers[newW].push(&chunk{recs: []rec{{addr: addr, kind: recMigIn, mig: m}}})
}

// finish flushes remaining chunks, stops the workers, and returns their
// engines' merge-time dumps.
func (pp *parallelPipe[S, PS]) finish() []engineDump {
	for w := range pp.workers {
		if len(pp.cur[w].recs) > 0 {
			pp.flush(w)
		}
	}
	for _, w := range pp.workers {
		w.done.Store(true)
	}
	pp.wg.Wait()
	dumps := make([]engineDump, len(pp.workers))
	for i, w := range pp.workers {
		dumps[i] = w.eng.dump()
	}
	return dumps
}

// rebalanceCount reports performed redistributions (observability).
func (pp *parallelPipe[S, PS]) rebalanceCount() int { return pp.rebalances }
