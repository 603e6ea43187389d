package lru

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCache drives one cache per row through a script and checks the
// counters after it. Steps: "do k" fills k at once (or hits); "begin k"
// starts a fill of k that stays in flight until "end k"; "hit k" and
// "miss k" are "do k" with the outcome asserted.
func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name    string
		max     int
		script  string
		entries int
		evicted int64
	}{
		{"second request hits", 4, "miss a, hit a, miss b, hit a, hit b", 2, 0},
		{"least recently used goes first and a touch refreshes", 2,
			"do a, do b, do a, do c, hit a, miss b", 2, 2},
		{"zero cap is unbounded", 0, "do a, do b, do c, do d, hit a", 4, 0},
		// Evicting a fill in flight would let a second fill of the same key
		// run beside it; the cap is exceeded instead.
		{"an entry in flight is never evicted", 1,
			"begin a, begin b, end a, do c, end b", 2, 1},
		{"nothing evictable leaves the cache over its cap", 1,
			"begin a, begin b, begin c, end a, end b, end c", 3, 0},
		{"in-flight entries become evictable once filled", 1,
			"begin a, begin b, end a, end b, do c", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, string](tc.max)
			release := map[string]chan struct{}{}
			var wg sync.WaitGroup
			for _, step := range strings.Split(tc.script, ", ") {
				op, key, _ := strings.Cut(step, " ")
				switch op {
				case "begin":
					started, rel := make(chan struct{}), make(chan struct{})
					release[key] = rel
					wg.Add(1)
					go func() {
						defer wg.Done()
						c.Do(key, func() string { close(started); <-rel; return key })
					}()
					<-started
				case "end":
					close(release[key])
					// The fill has returned when a second Do comes back.
					if _, hit := c.Do(key, nil); !hit {
						t.Fatalf("%s: not a hit", step)
					}
				default:
					v, hit := c.Do(key, func() string { return key })
					if v != key {
						t.Fatalf("%s: got value %q", step, v)
					}
					if op != "do" && hit != (op == "hit") {
						t.Fatalf("%s: hit=%v", step, hit)
					}
				}
			}
			wg.Wait()
			if _, _, ev, n := c.Stats(); n != tc.entries || ev != tc.evicted {
				t.Fatalf("entries=%d evictions=%d, want %d and %d", n, ev, tc.entries, tc.evicted)
			}
		})
	}
}

// TestDroppedFill: a fill that reports nothing worth keeping leaves no
// entry, is not an eviction and frees its slot, and the callers that were
// waiting on it each run a fill of their own instead of sharing its value.
// A panicking fill is dropped the same way.
func TestDroppedFill(t *testing.T) {
	c := New[string, *int](2)
	keep := func() (*int, bool) { return new(int), true }
	c.DoKeep("a", keep)

	// Every fill of "b" is dropped, so however the goroutines interleave
	// each call runs exactly one fill and gets a value nobody else holds.
	var fills atomic.Int64
	drop := func() (*int, bool) { fills.Add(1); return new(int), false }
	started, release := make(chan struct{}), make(chan struct{})
	const waiters = 8
	got := make([]*int, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got[0], _ = c.DoKeep("b", func() (*int, bool) { close(started); <-release; return drop() })
	}()
	<-started
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hit bool
			if got[i], hit = c.DoKeep("b", drop); hit {
				t.Errorf("waiter %d was answered from a dropped fill", i)
			}
		}()
	}
	// Give the waiters time to block on the fill in flight; the assertions
	// below hold in any interleaving, this only makes that one likely.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	seen := map[*int]bool{}
	for i, v := range got {
		if v == nil || seen[v] {
			t.Fatalf("caller %d got a nil or shared value", i)
		}
		seen[v] = true
	}
	if fills.Load() != waiters+1 {
		t.Fatalf("%d fills of b, want %d", fills.Load(), waiters+1)
	}

	// The dropped entries took no slot: "c" fits beside "a" without an
	// eviction, and "b" is filled again on its next request.
	func() {
		defer func() { recover() }()
		c.Do("p", func() *int { panic("fill fault") })
	}()
	c.DoKeep("c", keep)
	if _, _, ev, n := c.Stats(); ev != 0 || n != 2 {
		t.Fatalf("evictions=%d entries=%d after dropped fills, want 0 and 2", ev, n)
	}
	if _, hit := c.DoKeep("b", keep); hit {
		t.Fatal("b was answered from a dropped fill")
	}
	c.Do("c", nil)
	hits, misses, ev, n := c.Stats()
	// Misses: a, the waiters+1 fills of b, c, p, b again.
	if hits != 1 || misses != waiters+5 || ev != 1 || n != 2 {
		t.Fatalf("hits=%d misses=%d evictions=%d entries=%d, want 1, %d, 1, 2",
			hits, misses, ev, n, waiters+5)
	}
}

// TestConcurrentMissesCoalesce: goroutines asking for one key at once run
// one fill and share its value.
func TestConcurrentMissesCoalesce(t *testing.T) {
	c := New[int, *int](0)
	var fills atomic.Int64
	const n = 16
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.Do(7, func() *int { fills.Add(1); return new(int) })
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different value", i)
		}
	}
	if hits, misses, _, entries := c.Stats(); fills.Load() != 1 || misses != 1 || hits != n-1 || entries != 1 {
		t.Fatalf("%d fills, %d hits, %d misses, %d entries; want 1, %d, 1, 1", fills.Load(), hits, misses, entries, n-1)
	}
}
