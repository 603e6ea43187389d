// Package lru is the one memo table of the analysis stack: a bounded
// least-recently-used map whose concurrent misses on one key coalesce. The
// compile cache (bytecode.Cache) and the profile cache
// (pipeline.ProfileCache) are typed uses of it.
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
	key  K
	once sync.Once
	done bool // the fill returned; guarded by Cache.mu
	v    V
}

// New returns an empty cache holding at most max completed entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, m: make(map[K]*list.Element)}
}

// Do returns the value memoized under key, calling fill for it on first
// sight; hit reports that this call did not run fill.
func (c *Cache[K, V]) Do(key K, fill func() V) (v V, hit bool) {
	e := c.entry(key)
	hit = true
	e.once.Do(func() {
		hit = false
		e.v = fill()
	})
	c.mu.Lock()
	e.done = true
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return e.v, hit
}

// entry returns key's entry, most recently used from now on, inserting an
// empty one (and evicting down to max) when the key is new.
func (c *Cache[K, V]) entry(key K) *entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry[K, V])
	}
	e := &entry[K, V]{key: key}
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
	return e
}

// Stats returns the hit, miss and eviction counts and the number of live
// entries.
func (c *Cache[K, V]) Stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.m)
}
