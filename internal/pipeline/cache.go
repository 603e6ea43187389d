package pipeline

import (
	"discopop/internal/ir"
	"discopop/internal/lru"
	"discopop/internal/profiler"
)

// ProfileCache memoizes the Profile stage across jobs. A dynamic profile
// is a function of (program, input), and a module bakes its input in, so
// the key is everything that can change the outcome and nothing a caller
// has to make up: the module's content hash, the profiling options, and
// the instruction budget (a budgeted run can fail where an unbudgeted one
// succeeds). Experiment sweeps that re-analyze one workload across many
// tables, and a service seeing one module under a registry name and as a
// serialized submission, profile it once; the downstream stages (CU
// construction, discovery, ranking) still run per job.
//
// On a hit the Context's module is replaced by the instance that was
// actually profiled, so region and function pointers in the profile, the
// PET, and everything built on top agree — callers treat the report's Mod
// as authoritative, and must not mutate modules after submission.
//
// Single flight (a batch engine never profiles one key twice, and two
// profiles of one module never race on its operation numbering) and the
// bound (least recently used completed entry first, so a long-lived
// service cannot grow without limit) are lru.Cache's.
type ProfileCache struct {
	c *lru.Cache[profileKey, *profileEntry]
}

// DefaultCacheEntries is the entry cap of NewProfileCache — generous enough
// that experiment sweeps (~dozens of distinct workloads) never evict, small
// enough that a long-lived engine stays bounded.
const DefaultCacheEntries = 1024

// profileKey identifies one memoized profile. profiler.Options is a
// comparable all-scalar struct, so it participates in the key directly.
type profileKey struct {
	mod       [32]byte
	opt       profiler.Options
	maxInstrs int64
}

// NewProfileCache returns an empty cache with the default entry cap.
func NewProfileCache() *ProfileCache {
	return NewProfileCacheSize(DefaultCacheEntries)
}

// NewProfileCacheSize returns an empty cache evicting least-recently-used
// entries beyond max (0 = unbounded).
func NewProfileCacheSize(max int) *ProfileCache {
	return &ProfileCache{c: lru.New[profileKey, *profileEntry](max)}
}

// Stats returns the hit/miss counters.
func (c *ProfileCache) Stats() (hits, misses int64) {
	hits, misses, _, _ = c.c.Stats()
	return
}

// Evictions returns the number of entries dropped by the LRU bound.
func (c *ProfileCache) Evictions() int64 {
	_, _, ev, _ := c.c.Stats()
	return ev
}

// Len returns the number of live entries.
func (c *ProfileCache) Len() int {
	_, _, _, n := c.c.Stats()
	return n
}

// Profile returns the memoized profiling result of mod under (opt,
// maxInstrs), running the instrumented execution if this is the first
// request for that key. Result.Mod is the module instance that was profiled.
func (c *ProfileCache) Profile(mod *ir.Module, opt profiler.Options, maxInstrs int64) (*profiler.Result, error) {
	e, _ := c.lookup(mod, opt, maxInstrs)
	return e.run.Result, e.err
}

// lookup returns the memoized profile of mod under (opt, maxInstrs),
// running the instrumented execution on mod if this is the first request.
// The returned hit flag reports whether profiling was skipped.
func (c *ProfileCache) lookup(mod *ir.Module, opt profiler.Options, maxInstrs int64) (*profileEntry, bool) {
	return c.c.Do(profileKey{mod.ContentHash(), opt, maxInstrs}, func() *profileEntry {
		return runProfile(mod, opt, maxInstrs)
	})
}
