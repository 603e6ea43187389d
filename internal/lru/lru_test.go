package lru

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
