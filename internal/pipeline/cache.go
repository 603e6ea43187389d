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
// succeeds). Embedders that re-analyze one profile under other post-profile
// options — experiment sweeps across many tables, the benchmark's solo
// workloads — profile it once; the downstream stages (CU construction,
// discovery, ranking) still run per job. A dp-serve node keeps no
// ProfileCache: its ReportMemo answers a repeat before any stage runs.
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

// DefaultCacheEntries is the entry cap of NewProfileCache and of a dp-serve
// node's report memo — generous enough that experiment sweeps (~dozens of
// distinct workloads) never evict, small enough that a long-lived engine
// stays bounded.
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

// lookup returns the memoized profile of mod under (opt, maxInstrs),
// running the instrumented execution on mod if this is the first request.
// The returned hit flag reports whether profiling was skipped.
func (c *ProfileCache) lookup(mod *ir.Module, opt profiler.Options, maxInstrs int64) (*profileEntry, bool) {
	return c.c.Do(profileKey{mod.ContentHash(), opt, maxInstrs}, func() *profileEntry {
		return runProfile(mod, opt, maxInstrs)
	})
}

// ReportMemo memoizes finished analyses ahead of the stages (see
// Options.Reports). The Profile stage's argument holds for the whole
// report: a module bakes its input in, so its content hash and the options
// that can change the outcome identify it. The memo holds the wire form
// without anything that belongs to the job that filled it (spans, trace id,
// peer, timings) — never suggestions resolved against a module, whose
// Region pointers would keep every module an entry came from alive.
type ReportMemo = lru.Cache[reportKey, *WireReport]

// NewReportMemo returns an empty memo holding at most max reports
// (0 = unbounded).
func NewReportMemo(max int) *ReportMemo { return lru.New[reportKey, *WireReport](max) }

type reportKey struct {
	mod       [32]byte
	profiler  profiler.Options
	threads   int
	bottomUp  bool
	maxInstrs int64
}
