package queue

import (
	"runtime"
	"sync/atomic"
)

// LockedQueue is a conventional mutex-protected queue used as the
// lock-based baseline in the Figure 2.9 comparison.
type LockedQueue[T any] struct {
	mu    spinMutex
	items []T
	head  int
}

// Push enqueues v.
func (q *LockedQueue[T]) Push(v T) {
	q.mu.lock()
	q.items = append(q.items, v)
	q.mu.unlock()
}

// TryPop dequeues an item, reporting false if the queue is empty.
func (q *LockedQueue[T]) TryPop() (T, bool) {
	var zero T
	q.mu.lock()
	if q.head == len(q.items) {
		q.mu.unlock()
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.mu.unlock()
	return v, true
}

// spinMutex is a test-and-set spin lock: the locking/unlocking cost it
// models is the contention the lock-free designs eliminate.
type spinMutex struct {
	v atomic.Bool
}

// spinTries bounds the failed attempts between yields: a holder that was
// preempted inside its critical section cannot release the lock while the
// spinner occupies the only P, so spinning on costs a scheduler quantum.
const spinTries = 64

func (m *spinMutex) lock() {
	for n := 1; !m.v.CompareAndSwap(false, true); n++ {
		if n%spinTries == 0 {
			runtime.Gosched()
		}
	}
}

func (m *spinMutex) unlock() { m.v.Store(false) }
