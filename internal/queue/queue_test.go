package queue

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// TestSPSCSequentialFIFO checks single-threaded FIFO semantics.
func TestSPSCSequentialFIFO(t *testing.T) {
	q := NewSPSC[int](8)
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed on non-full queue", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push succeeded on full queue")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from drained queue succeeded")
	}
}

// TestSPSCCapacityRounding checks the power-of-two rounding.
func TestSPSCCapacityRounding(t *testing.T) {
	for _, c := range []int{1, 3, 5, 17, 100} {
		q := NewSPSC[int](c)
		n := 0
		for q.TryPush(n) {
			n++
		}
		if n < c {
			t.Errorf("capacity(%d): only %d items fit", c, n)
		}
	}
}

// TestSPSCConcurrent streams a million items through a small ring and
// demands exact order and exactly-once delivery — the release/acquire
// correctness the paper's design relies on.
func TestSPSCConcurrent(t *testing.T) {
	const n = 1 << 20
	q := NewSPSC[int](64)
	done := make(chan error, 1)
	go func() {
		expect := 0
		for expect < n {
			v, ok := q.TryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != expect {
				done <- errf("out of order: got %d want %d", v, expect)
				return
			}
			expect++
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		for !q.TryPush(i) {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// TestLockedQueue checks the lock-based baseline.
func TestLockedQueue(t *testing.T) {
	q := &LockedQueue[string]{}
	q.Push("a")
	q.Push("b")
	if v, ok := q.TryPop(); !ok || v != "a" {
		t.Fatalf("pop = %q,%v", v, ok)
	}
	if v, ok := q.TryPop(); !ok || v != "b" {
		t.Fatalf("pop = %q,%v", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty locked queue succeeded")
	}
}

// TestLockedQueueConcurrent hammers the locked queue from both sides.
func TestLockedQueueConcurrent(t *testing.T) {
	q := &LockedQueue[int]{}
	const n = 100000
	go func() {
		for i := 0; i < n; i++ {
			q.Push(i)
		}
	}()
	expect := 0
	for expect < n {
		v, ok := q.TryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != expect {
			t.Fatalf("out of order: %d want %d", v, expect)
		}
		expect++
	}
}

// TestSpinMutexYieldsOnOneP: on one P a spinner must hand the processor back
// to the lock holder. Each round the holder is descheduled inside its
// critical section with a Push spinning against it; a spinner that never
// yields keeps the P until the scheduler preempts it, about 10 ms a round.
func TestSpinMutexYieldsOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 2000
	q := &LockedQueue[int]{}
	pushed := make(chan struct{})
	start := time.Now()
	for i := 0; i < rounds; i++ {
		q.mu.lock()
		go func() {
			q.Push(i)
			pushed <- struct{}{}
		}()
		runtime.Gosched() // the spinner runs, and must give the P back
		q.mu.unlock()
		<-pushed
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("%d contended pushes on one P took %v: the spinner does not yield", rounds, d)
	}
	for i := 0; i < rounds; i++ {
		if v, ok := q.TryPop(); !ok || v != i {
			t.Fatalf("pop %d = (%d,%v)", i, v, ok)
		}
	}
}

// TestSPSCQuickFIFO is a property test: any push/pop interleaving behaves
// like a bounded FIFO.
func TestSPSCQuickFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewSPSC[int](16)
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				okQ := q.TryPush(next)
				okM := len(model) <= int(q.mask)
				if okQ != okM {
					return false
				}
				if okQ {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.TryPop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSPSC(b *testing.B) {
	q := NewSPSC[int](1024)
	for i := 0; i < b.N; i++ {
		q.TryPush(i)
		q.TryPop()
	}
}
