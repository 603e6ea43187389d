package pipeline

import (
	"reflect"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// TestProfileCacheSkipsSecondProfiling is the contract of the Profile-stage
// cache: the second analysis of an identical (module content, profiling
// options) pair — here a second build of the workload, another instance —
// must not re-run the instrumented execution — it reuses the recorded
// profile and PET — and must produce an identical report.
func TestProfileCacheSkipsSecondProfiling(t *testing.T) {
	cache := NewProfileCache()
	opt := Options{Cache: cache}
	run := func() *Context {
		ctx := &Context{Mod: workloads.MustBuild("histogram", 1).M, Opt: opt}
		if err := New().Run(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	first := run()
	if first.CacheHit {
		t.Fatal("first analysis reported a cache hit")
	}
	second := run()
	if !second.CacheHit {
		t.Fatal("second analysis of an identical (module, options) pair re-profiled")
	}
	// Skipping profiling means replaying the recorded products, not
	// recomputing equal ones: the profile and PET are the same instances.
	if second.Profile != first.Profile {
		t.Error("cache hit delivered a different profile instance")
	}
	if second.PET != first.PET {
		t.Error("cache hit delivered a different PET instance")
	}
	// Downstream stages re-run per job and agree on the cached module.
	if second.Mod != first.Mod {
		t.Error("cache hit did not make the profiled module authoritative")
	}
	if !reflect.DeepEqual(depCounts(first), depCounts(second)) {
		t.Error("cached analysis changed the dependence set")
	}
	if len(second.Ranked) != len(first.Ranked) {
		t.Errorf("cached analysis ranked %d suggestions, want %d",
			len(second.Ranked), len(first.Ranked))
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func depCounts(ctx *Context) map[profiler.Dep]int64 { return ctx.Profile.Deps }

// TestProfileCacheDistinguishesOptions: the same module with different
// profiling options must profile separately.
func TestProfileCacheDistinguishesOptions(t *testing.T) {
	cache := NewProfileCache()
	base := Options{Cache: cache}
	skip := base
	skip.Profiler.Skip = true
	for _, o := range []Options{base, skip} {
		ctx := &Context{Mod: workloads.MustBuild("kmeans", 1).M, Opt: o}
		if err := New().Run(ctx); err != nil {
			t.Fatal(err)
		}
		if ctx.CacheHit {
			t.Fatalf("options %+v: unexpected cache hit", o.Profiler)
		}
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 0/2", hits, misses)
	}
}

// TestEngineCountsCacheHits: batch jobs sharing one cache coalesce on one
// profiled execution, and the fleet stats report the hits.
func TestEngineCountsCacheHits(t *testing.T) {
	cache := NewProfileCache()
	mod := workloads.MustBuild("histogram", 1).M
	opt := Options{Cache: cache}
	jobs := make([]Job, 6)
	for i := range jobs {
		// All jobs share the module: only the first to claim the cache
		// entry executes it, the rest reuse the recorded profile.
		jobs[i] = Job{Name: "histogram", Mod: mod, Opt: &opt}
	}
	results, stats := AnalyzeAllStats(jobs, Options{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Fatalf("expected exactly one profiled execution, got %d", misses)
	}
	if stats.CacheHits != len(jobs)-1 {
		t.Fatalf("FleetStats.CacheHits = %d, want %d", stats.CacheHits, len(jobs)-1)
	}
}

// TestProfileCacheLRUEviction: beyond the entry cap the least recently
// used key is dropped (and counted), while recently touched keys survive.
func TestProfileCacheLRUEviction(t *testing.T) {
	cache := NewProfileCacheSize(2)
	profile := func(name string) {
		ctx := &Context{Mod: workloads.MustBuild(name, 1).M, Opt: Options{Cache: cache}}
		if err := New().Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	profile("histogram") // LRU order: histogram
	profile("kmeans")    // kmeans, histogram
	profile("histogram") // histogram, kmeans (touch refreshes recency)
	profile("EP")        // EP, histogram — kmeans evicted
	if ev := cache.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if _, _, _, n := cache.c.Stats(); n != 2 {
		t.Fatalf("live entries = %d, want 2", n)
	}
	hits0, misses0 := cache.Stats()
	profile("histogram") // survived: must hit
	profile("kmeans")    // evicted: must re-profile (and evict histogram's peer EP)
	hits1, misses1 := cache.Stats()
	if hits1-hits0 != 1 {
		t.Fatalf("surviving key did not hit: %d hits added", hits1-hits0)
	}
	if misses1-misses0 != 1 {
		t.Fatalf("evicted key did not re-profile: %d misses added", misses1-misses0)
	}
}

// TestProfileCacheUnboundedWithZeroCap: cap 0 disables eviction.
func TestProfileCacheUnboundedWithZeroCap(t *testing.T) {
	cache := NewProfileCacheSize(0)
	for _, name := range []string{"histogram", "kmeans", "EP", "IS"} {
		ctx := &Context{Mod: workloads.MustBuild(name, 1).M, Opt: Options{Cache: cache}}
		if err := New().Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if ev := cache.Evictions(); ev != 0 {
		t.Fatalf("unbounded cache evicted %d entries", ev)
	}
	if _, _, _, n := cache.c.Stats(); n != 4 {
		t.Fatalf("live entries = %d, want 4", n)
	}
}

// TestProfileCacheIsKeyedOnContent holds the cache to the two cases a
// caller-chosen key string got wrong by construction: one name on two
// programs must not share a profile, and one program under two names (a
// registry workload, and the same module decoded from its encoding under
// whatever label the sender chose) must.
func TestProfileCacheIsKeyedOnContent(t *testing.T) {
	cache := NewProfileCache()
	run := func(mod *ir.Module) *Context {
		ctx := &Context{Mod: mod, Opt: Options{Cache: cache}}
		if err := New().Run(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	small, large := run(workloads.MustBuild("CG", 1).M), run(workloads.MustBuild("CG", 2).M)
	if large.CacheHit || large.Instrs == small.Instrs {
		t.Fatalf("CG@2 was served CG@1's profile (hit=%v, %d vs %d instrs)", large.CacheHit, large.Instrs, small.Instrs)
	}
	enc, err := ir.Encode(workloads.MustBuild("CG", 1).M)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if wire := run(dec); !wire.CacheHit || wire.Profile != small.Profile {
		t.Fatal("the decoded encoding of CG@1 did not hit CG@1's profile")
	}
}

// TestProfileCacheIsKeyedOnBudget: the instruction budget is part of the key.
// A budget-exhausted failure memoized for a module must not be served to a
// job analyzing the same content unbudgeted.
func TestProfileCacheIsKeyedOnBudget(t *testing.T) {
	cache := NewProfileCache()
	run := func(maxInstrs int64) error {
		ctx := &Context{Mod: workloads.MustBuild("CG", 1).M,
			Opt: Options{Cache: cache, MaxInstrs: maxInstrs}}
		return New().Run(ctx)
	}
	if err := run(1000); err == nil {
		t.Fatal("CG@1 finished within 1000 instructions")
	}
	if err := run(0); err != nil {
		t.Fatalf("unbudgeted job was served the budgeted failure: %v", err)
	}
	if _, _, _, n := cache.c.Stats(); n != 2 {
		t.Fatalf("live entries = %d, want 2 (one per budget)", n)
	}
}
