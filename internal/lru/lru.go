// Package lru is the one memo table of the analysis stack: a bounded
// least-recently-used map whose concurrent misses on one key coalesce. The
// compile cache (bytecode.Cache), the finished-report memo every dp-serve
// node keeps (pipeline.ReportMemo) and the profile cache of embedders that
// re-analyse one profile under other options (pipeline.ProfileCache) are
// typed uses of it.
package lru

import (
	"container/list"
	"sync"
)

// Cache memoizes fill results by key. The first caller of Do for a key runs
// its fill; callers arriving meanwhile block until that value is ready and
// share it, so one key is never filled twice while it is held. Beyond max
// entries (0 = unbounded) the least recently used completed entry is
// evicted; an entry still being filled is never evicted — its waiters hold
// it, and a second fill of the same key would run beside the first — so the
// cache may exceed max by the number of fills in flight. Eviction only
// forgets: callers holding the value are unaffected, and the next Do for
// the key fills again.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	max int
	m   map[K]*list.Element
	lru list.List // front = most recently used; values are *entry[K, V]

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key   K
	ready chan struct{} // closed when the fill has returned or unwound
	done  bool          // the fill's value is kept; guarded by Cache.mu
	v     V
}

// New returns an empty cache holding at most max completed entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, m: make(map[K]*list.Element)}
}

// Do returns the value memoized under key, calling fill for it on first
// sight; hit reports that this call did not run fill.
func (c *Cache[K, V]) Do(key K, fill func() V) (v V, hit bool) {
	return c.DoKeep(key, func() (V, bool) { return fill(), true })
}

// DoKeep is Do for a fill that may produce nothing worth keeping. When fill
// reports keep = false (or panics) its value goes to its own caller only,
// the entry is removed as if it had never been made, and every caller that
// was waiting on it runs its own fill — uncoalesced, its value not kept —
// instead of sharing a value that was not meant to be shared. A dropped
// fill counts as a miss, never as an eviction.
func (c *Cache[K, V]) DoKeep(key K, fill func() (V, bool)) (v V, hit bool) {
	e, owner := c.entry(key)
	if !owner {
		<-e.ready
		c.mu.Lock()
		kept := e.done
		if kept {
			c.hits++
		} else {
			c.misses++
		}
		c.mu.Unlock()
		if kept {
			return e.v, true
		}
		v, _ = fill()
		return v, false
	}
	keep := false
	defer func() {
		c.mu.Lock()
		c.misses++
		if keep {
			e.done = true
		} else {
			c.lru.Remove(c.m[key])
			delete(c.m, key)
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	e.v, keep = fill()
	return e.v, false
}

// entry returns key's entry, most recently used from now on, inserting an
// empty one (and evicting down to max) when the key is new; owner reports
// that the caller inserted it and must fill it.
func (c *Cache[K, V]) entry(key K) (e *entry[K, V], owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry[K, V]), false
	}
	e = &entry[K, V]{key: key, ready: make(chan struct{})}
	c.m[key] = c.lru.PushFront(e)
	var prev *list.Element
	for el := c.lru.Back(); el != nil && c.max > 0 && c.lru.Len() > c.max; el = prev {
		prev = el.Prev()
		if old := el.Value.(*entry[K, V]); old.done {
			delete(c.m, old.key)
			c.lru.Remove(el)
			c.evictions++
		}
	}
	return e, true
}

// Stats returns the hit, miss and eviction counts and the number of live
// entries.
func (c *Cache[K, V]) Stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.m)
}
