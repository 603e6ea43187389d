package profiler

import (
	"reflect"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/mem"
	"discopop/internal/workloads"
)

// TestPooledArenaDifferential: profiling on a recycled arena must produce
// byte-identical dependence tables to profiling on a freshly allocated one.
// The pool is seeded by a first pooled run, so the second pooled run is
// guaranteed to execute on a dirtied-then-Reset space.
func TestPooledArenaDifferential(t *testing.T) {
	opts := []Options{
		{Store: StorePerfect},
		{Store: StorePerfect, Skip: true},
		{Store: StoreSignature, Slots: 1 << 16},
	}
	for _, name := range []string{"CG", "histogram", "kmeans"} {
		for _, opt := range opts {
			pool := mem.NewPool()
			runPooled := func() *Result {
				m := workloads.MustBuild(name, 1).M
				p := New(m, opt)
				in := interp.New(m, p, interp.WithPool(pool))
				defer in.Release()
				in.Run()
				return p.Result()
			}
			runFresh := func() *Result {
				m := workloads.MustBuild(name, 1).M
				p := New(m, opt)
				interp.New(m, p).Run()
				return p.Result()
			}
			runPooled() // seed the pool with a dirtied space
			recycled := runPooled()
			fresh := runFresh()
			if fresh.Accesses != recycled.Accesses {
				t.Fatalf("%s/%+v: access counts diverged: %d vs %d",
					name, opt, fresh.Accesses, recycled.Accesses)
			}
			if !reflect.DeepEqual(fresh.Deps, recycled.Deps) {
				t.Fatalf("%s/%+v: dependence tables diverged between fresh and recycled arenas (%d vs %d deps)",
					name, opt, len(fresh.Deps), len(recycled.Deps))
			}
		}
	}
}

// TestPooledArenaAcrossModules: an arena dirtied by one module and drawn by
// another — of another layout, which the pool re-targets — gives the profile
// a fresh arena gives. (TestPooledArenaDifferential recycles one module's
// arena for the same module, under the old pool key the only reachable case.)
// The pool may drop a returned arena, so a pair is retried until the second
// run was seen to draw a recycled one.
func TestPooledArenaAcrossModules(t *testing.T) {
	opts := []Options{
		{Store: StorePerfect},
		{Store: StorePerfect, Skip: true},
		{Store: StoreSignature, Slots: 1 << 16},
	}
	run := func(name string, opt Options, pool *mem.Pool) (*Result, mem.Layout) {
		m := workloads.MustBuild(name, 1).M
		p := New(m, opt)
		var iopts []interp.Option
		if pool != nil {
			iopts = append(iopts, interp.WithPool(pool))
		}
		in := interp.New(m, p, iopts...)
		defer in.Release()
		layout := in.Space().Layout()
		in.Run()
		return p.Result(), layout
	}
	// Each program after its predecessor: towards more globals and towards fewer.
	names := []string{"CG", "histogram", "kmeans", "CG"}
	for _, opt := range opts {
		for i := 1; i < len(names); i++ {
			prev, name := names[i-1], names[i]
			fresh, layout := run(name, opt, nil)
			recycled := false
			for try := 0; try < 20 && !recycled; try++ {
				pool := mem.NewPool()
				_, prevLayout := run(prev, opt, pool)
				if prevLayout == layout {
					t.Fatalf("%s and %s share a layout: the pair tests nothing", prev, name)
				}
				before := pool.Stats().Fresh
				got, _ := run(name, opt, pool)
				recycled = pool.Stats().Fresh == before
				if fresh.Accesses != got.Accesses || !reflect.DeepEqual(fresh.Deps, got.Deps) {
					t.Fatalf("%s after %s, %+v: a recycled arena changed the profile (%d vs %d accesses, %d vs %d deps)",
						name, prev, opt, got.Accesses, fresh.Accesses, len(got.Deps), len(fresh.Deps))
				}
			}
			if !recycled {
				t.Fatalf("%s after %s: the pool never handed %s's arena on", name, prev, prev)
			}
		}
	}
}
