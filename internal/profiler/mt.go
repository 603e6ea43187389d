package profiler

import (
	"runtime"
	"sync"
	"sync/atomic"

	"discopop/internal/interp"
	"discopop/internal/queue"
)

// mtPipe implements the modified parallelization strategy for
// multi-threaded target programs (Section 2.3.4). Each target thread has
// its own producer (relay) so that more than one producer may push into a
// worker's queue concurrently — a multiple-producer-single-consumer
// pattern, realized with the lock-free fetch-and-add queue of Figure 2.5.
//
// Accesses ordered by explicit locks are kept in order by flushing all
// relays at Lock/Unlock events, the analogue of inserting the push
// operation inside the lock region (Figure 2.4c). Unlocked conflicting
// accesses may legitimately be observed out of timestamp order by a
// worker; the engine then marks the dependence Reversed — a potential data
// race.

type relay struct {
	ring *queue.SPSC[rec]
	sent atomic.Int64
	fwd  atomic.Int64
	stop atomic.Bool
}

type mtWorker[S any, PS storeOps[S]] struct {
	q    *queue.MPSC[rec]
	eng  *engine[S, PS]
	done atomic.Bool
	proc atomic.Int64 // records processed (for barriers)
	sent atomic.Int64 // records pushed to this worker by all relays
}

type mtPipe[S any, PS storeOps[S]] struct {
	p       *Profiler
	relays  [interp.MaxThreads]*relay
	workers []*mtWorker[S, PS]
	wg      sync.WaitGroup
	relayWG sync.WaitGroup
}

func newMTPipe[S any, PS storeOps[S]](p *Profiler, mk func(nshares int) S) *mtPipe[S, PS] {
	w := p.opt.Workers
	if w == 0 {
		w = 4
	}
	mp := &mtPipe[S, PS]{p: p}
	for i := 0; i < w; i++ {
		mw := &mtWorker[S, PS]{q: queue.NewMPSC[rec](),
			eng: newEngine[S, PS](p, mk(w))}
		mp.workers = append(mp.workers, mw)
		mp.wg.Add(1)
		go mp.runWorker(mw)
	}
	return mp
}

func (mp *mtPipe[S, PS]) runWorker(w *mtWorker[S, PS]) {
	defer mp.wg.Done()
	for {
		r, ok := w.q.TryPop()
		if !ok {
			if w.done.Load() {
				if r, ok = w.q.TryPop(); !ok {
					return
				}
			} else {
				runtime.Gosched()
				continue
			}
		}
		w.eng.process(&r)
		w.proc.Add(1)
	}
}

func (mp *mtPipe[S, PS]) relayFor(tid int32) *relay {
	if mp.relays[tid] == nil {
		rl := &relay{ring: queue.NewSPSC[rec](4096)}
		mp.relays[tid] = rl
		mp.relayWG.Add(1)
		go mp.runRelay(rl)
	}
	return mp.relays[tid]
}

func (mp *mtPipe[S, PS]) runRelay(rl *relay) {
	defer mp.relayWG.Done()
	nw := uint64(len(mp.workers))
	for {
		r, ok := rl.ring.TryPop()
		if !ok {
			if rl.stop.Load() {
				if r, ok = rl.ring.TryPop(); !ok {
					return
				}
			} else {
				runtime.Gosched()
				continue
			}
		}
		w := mp.workers[r.addr%nw]
		w.sent.Add(1)
		w.q.Push(r)
		rl.fwd.Add(1)
	}
}

// produce routes a record through the producing target thread's relay.
func (mp *mtPipe[S, PS]) produce(r rec) {
	tid := int32(unpackThread(r.info))
	if r.kind == recRemove {
		tid = 0
	}
	rl := mp.relayFor(tid)
	for !rl.ring.TryPush(r) {
		runtime.Gosched()
	}
	rl.sent.Add(1)
}

// barrier waits until every relay has forwarded everything it was handed
// and every worker has consumed everything forwarded to it. After a
// barrier, all previously produced accesses are fully recorded, which is
// what pushing inside the lock region guarantees in the paper.
// produceBatch feeds one flushed chunk through the per-thread relays.
// Records carry their producing thread in the packed info word, so routing
// stays per-record; the batching win is the single pipeline call per chunk.
func (mp *mtPipe[S, PS]) produceBatch(rs []rec) {
	for i := range rs {
		mp.produce(rs[i])
	}
}

func (mp *mtPipe[S, PS]) barrier() {
	for _, rl := range mp.relays {
		if rl == nil {
			continue
		}
		for rl.fwd.Load() != rl.sent.Load() {
			runtime.Gosched()
		}
	}
	for _, w := range mp.workers {
		for w.proc.Load() != w.sent.Load() {
			runtime.Gosched()
		}
	}
}

func (mp *mtPipe[S, PS]) finish() []engineDump {
	for _, rl := range mp.relays {
		if rl != nil {
			rl.stop.Store(true)
		}
	}
	mp.relayWG.Wait()
	for _, w := range mp.workers {
		w.done.Store(true)
	}
	mp.wg.Wait()
	dumps := make([]engineDump, len(mp.workers))
	for i, w := range mp.workers {
		dumps[i] = w.eng.dump()
	}
	return dumps
}
