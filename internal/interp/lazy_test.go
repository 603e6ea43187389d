package interp

import (
	"sync"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/mem"
)

// buildSeq builds a small single-threaded module: a loop writing a global
// through a function call (so the main thread's stack is exercised too).
func buildSeq() *ir.Module {
	b := ir.NewBuilder("lazy")
	out := b.Global("out", ir.F64)
	f := b.Func("work")
	x := f.Local("x", ir.F64)
	f.Set(x, ir.CI(2))
	f.Set(out, ir.Add(ir.V(out), ir.V(x)))
	fd := f.Done()
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(10), ir.CI(1), func(i *ir.Var) {
		mb.Call(fd)
	})
	return b.Build(mb.Done())
}

// TestNewDoesNotAllocateArena: constructing an interpreter materializes no
// memory at all — the 64-stack arena of the old flat layout is gone.
func TestNewDoesNotAllocateArena(t *testing.T) {
	it := New(buildSeq(), nil)
	if fp := it.Space().Footprint(); fp != 0 {
		t.Fatalf("New materialized %d bytes before Run", fp)
	}
}

// TestSingleThreadedMaterializesOneStack: a sequential workload touches
// exactly one of the 64 reserved stack segments.
func TestSingleThreadedMaterializesOneStack(t *testing.T) {
	it := New(buildSeq(), nil)
	it.Run()
	if got := it.Space().StackPagesTouched(); got != 1 {
		t.Fatalf("stack segments materialized = %d, want 1", got)
	}
}

// TestSpawnedThreadsMaterializeTheirStacks: each concurrently live
// simulated thread's first stack touch materializes its own segment — and
// only those. The workers run long enough that all three are live at
// once; dead threads' IDs (and segments) are recycled, so trivially short
// workers may share a segment (see TestThreadIDRecycling).
func TestSpawnedThreadsMaterializeTheirStacks(t *testing.T) {
	b := ir.NewBuilder("mtlazy")
	w := b.Func("worker")
	x := w.Local("x", ir.F64)
	w.For("i", ir.CI(0), ir.CI(8), ir.CI(1), func(i *ir.Var) {
		w.Set(x, ir.Add(ir.V(x), ir.CI(1)))
	})
	wf := w.Done()
	mb := b.Func("main")
	mb.Spawn(wf)
	mb.Spawn(wf)
	mb.Spawn(wf)
	mb.Sync()
	m := b.Build(mb.Done())
	it := New(m, nil)
	it.Run()
	// Three worker stacks; the main thread binds no locals, so even its own
	// stack segment is never materialized.
	if got := it.Space().StackPagesTouched(); got != 3 {
		t.Fatalf("stack segments materialized = %d, want 3", got)
	}
}

// TestRecycledSpaceRunsIdentically: the same module runs to the same state
// on a fresh space and on a pooled space dirtied by a previous run.
func TestRecycledSpaceRunsIdentically(t *testing.T) {
	pool := mem.NewPool()

	run := func(opts ...Option) (int64, float64) {
		m := buildSeq()
		it := New(m, nil, opts...)
		n := it.Run()
		var out float64
		for v, base := range it.globalBase {
			if v.Name == "out" {
				out = it.space.Load(base)
			}
		}
		it.Release()
		return n, out
	}

	nFresh, outFresh := run()
	run(WithPool(pool)) // dirty a pooled space
	nRec, outRec := run(WithPool(pool))
	if nFresh != nRec || outFresh != outRec {
		t.Fatalf("recycled run diverged: (%d, %v) vs (%d, %v)", nRec, outRec, nFresh, outFresh)
	}
}

// TestPrepareOpsConcurrentIsRaceFree: numbering runs once per module, so
// concurrent PrepareOps calls (an evicted profile-cache key re-profiling a
// module other jobs still read) must not re-write Op fields. Validated
// under -race.
func TestPrepareOpsConcurrentIsRaceFree(t *testing.T) {
	m := buildSeq()
	want := PrepareOps(m)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := PrepareOps(m); got != want {
				t.Errorf("PrepareOps = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}
