package mem

import (
	"sync"
	"sync/atomic"
)

// Pool recycles Spaces across runs. There is one pool for every layout: a
// returned space is Reset — page table all nil, dirtied pages zeroed and kept
// as spares — and what remains of its layout is three numbers, so Get
// re-targets whatever space it draws (Space.retarget) instead of waiting for
// a module with the same number of global elements to come by. Batch workers
// draw from one shared pool, so a job pays a Reset of its predecessor's
// touched pages instead of allocating and zeroing an arena of its own,
// whichever module that predecessor ran.
//
// Pools are concurrency-safe. Put resets before pooling, so Get always hands
// out a space indistinguishable from a fresh NewSpace of the requested
// layout. Pooled spaces sit in a sync.Pool and are reclaimed by the garbage
// collector when nothing draws them; the pool holds nothing else.
//
// The pool keeps three lifetime counters (Stats): Gets and Puts count the
// checkout/return traffic, Fresh counts the Gets that found the pool empty
// and allocated a new arena. Gets − Fresh is the number of recycled
// checkouts; Gets − Puts is the number of spaces currently checked out
// (assuming every Get is eventually Put).
type Pool struct {
	spaces sync.Pool // of *Space, each Reset

	gets, puts, fresh atomic.Int64
}

// PoolStats is a snapshot of a Pool's lifetime counters.
type PoolStats struct {
	// Gets is the number of spaces checked out.
	Gets int64
	// Puts is the number of spaces returned.
	Puts int64
	// Fresh is the number of Gets that allocated a new space because no
	// recycled one was available (an empty pool, including arenas the
	// collector reclaimed).
	Fresh int64
}

// Default is the process-wide arena pool shared by every run entry point
// (direct profiling, the pipeline's Profile stage, native baselines).
var Default = NewPool()

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a clean space for the given layout, recycled when the pool
// holds one — of any layout.
func (p *Pool) Get(l Layout) *Space {
	p.gets.Add(1)
	if s, ok := p.spaces.Get().(*Space); ok {
		s.retarget(l)
		return s
	}
	p.fresh.Add(1)
	return NewSpace(l)
}

// Put resets s and returns it to the pool.
func (p *Pool) Put(s *Space) {
	if s == nil {
		return
	}
	p.puts.Add(1)
	s.Reset()
	p.spaces.Put(s)
}

// Stats returns a snapshot of the pool's lifetime counters. It is safe to
// call concurrently with Get and Put; the three counters are read
// individually, so a snapshot taken mid-checkout may observe the Get before
// the matching Fresh.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:  p.gets.Load(),
		Puts:  p.puts.Load(),
		Fresh: p.fresh.Load(),
	}
}
