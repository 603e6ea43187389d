package bytecode

import (
	"time"

	"discopop/internal/ir"
	"discopop/internal/lru"
)

// ModuleHash forwards to (*ir.Module).ContentHash. It remains only for
// bench/, which the next [benchmark] PR switches over (ROADMAP).
func ModuleHash(m *ir.Module) [32]byte { return m.ContentHash() }

// Cache memoizes compiled Programs by module content hash — the compilation
// alone, not the instrumented run — so one module profiled under different
// options, or arriving as a rebuilt workload and as a decoded submission,
// still compiles exactly once. Single flight and eviction are lru.Cache's.
type Cache struct {
	c *lru.Cache[[32]byte, compiled]
}

type compiled struct {
	prog *Program
	dur  time.Duration
}

// DefaultCacheEntries bounds the shared compile cache: far above the
// bundled workload registry, small enough that a long-lived engine holds a
// bounded set of compiled programs.
const DefaultCacheEntries = 256

// Shared is the process-wide compile cache used by interp.New unless a
// program or the tree walker is selected explicitly.
var Shared = NewCache(DefaultCacheEntries)

// NewCache returns an empty cache evicting least-recently-used completed
// entries beyond max (0 = unbounded).
func NewCache(max int) *Cache {
	return &Cache{c: lru.New[[32]byte, compiled](max)}
}

// Get returns the compiled program for m, compiling it on first sight. The
// hit flag reports whether compilation was skipped; dur is the compile
// time actually spent by this call (zero on a hit).
func (c *Cache) Get(m *ir.Module) (prog *Program, hit bool, dur time.Duration) {
	v, hit := c.c.Do(m.ContentHash(), func() compiled {
		start := time.Now()
		p := Compile(m)
		return compiled{p, time.Since(start)}
	})
	if hit {
		return v.prog, true, 0
	}
	return v.prog, false, v.dur
}

// Stats returns the hit/miss counters and the live entry count.
func (c *Cache) Stats() (hits, misses int64, entries int) {
	hits, misses, _, entries = c.c.Stats()
	return
}
