// Package queue provides the two queues the profiler's worker pipeline
// (Sections 2.3.3 and 2.3.4) hands chunks over: a lock-free
// single-producer-single-consumer ring between the routing thread and each
// worker — one producer suffices for multi-threaded targets as well, since
// the interpreter serialises their threads into one event stream — and a
// conventional mutex-protected queue, the "lock-based" baseline of Figure
// 2.9.
package queue

import "sync/atomic"

type pad [64]byte

// SPSC is a bounded lock-free single-producer-single-consumer ring.
// Synchronization relies solely on the release/acquire ordering of the
// atomic head/tail indices, mirroring the C++11 memory-order-release /
// memory-order-acquire design of the paper's profiler.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    pad
	head atomic.Uint64 // next index to pop (consumer-owned)
	_    pad
	tail atomic.Uint64 // next index to push (producer-owned)
	_    pad
}

// NewSPSC returns an SPSC ring with capacity rounded up to a power of two.
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// TryPush enqueues v, reporting false if the ring is full. Must be called
// from a single producer goroutine.
func (q *SPSC[T]) TryPush(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() > q.mask {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1) // release: the consumer's acquire-load sees buf[t]
	return true
}

// TryPop dequeues an item, reporting false if the ring is empty. Must be
// called from a single consumer goroutine.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.tail.Load() {
		return zero, false
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero
	q.head.Store(h + 1)
	return v, true
}
