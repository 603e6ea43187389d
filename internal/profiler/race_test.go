package profiler

import (
	"reflect"
	"sync"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// TestMTTracerCallbacksRaceClean exercises the multi-threaded-target
// pipeline across worker counts. The interpreter hands tracer callbacks
// across goroutines (simulated threads pass an execution token), so every
// piece of Profiler shared state — the dense line counters, the access
// counter, the region map, the per-thread loop stacks, and the shared
// context table read concurrently by the workers — is exercised here;
// running the package under -race validates the guarding.
func TestMTTracerCallbacksRaceClean(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for _, name := range workloads.Names("Starbench-MT") {
			prog := workloads.MustBuild(name, 1)
			res := Profile(prog.M, Options{Store: StorePerfect, MT: true, Workers: workers})
			if res.Accesses == 0 {
				t.Errorf("%s (%d workers): no accesses recorded", name, workers)
			}
			if len(res.Lines) == 0 {
				t.Errorf("%s (%d workers): no line counts recorded", name, workers)
			}
		}
	}
}

// TestConcurrentProfilersAreIndependent runs many profilers side by side
// on distinct modules (the batch-engine execution pattern) and checks each
// matches its own serial baseline — no state leaks between instances.
func TestConcurrentProfilersAreIndependent(t *testing.T) {
	names := workloads.Names("NAS")
	baselines := make([]*Result, len(names))
	for i, name := range names {
		baselines[i] = Profile(workloads.MustBuild(name, 1).M, Options{Store: StorePerfect})
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			res := Profile(workloads.MustBuild(name, 1).M, Options{Store: StorePerfect})
			fp, fn := DiffDeps(res.Deps, baselines[i].Deps)
			if len(fp) != 0 || len(fn) != 0 {
				errs <- name
			}
		}(i, name)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: concurrent profile diverged from serial baseline", name)
	}
}

// TestDenseLineCountsMatchAccessStream checks the dense op-indexed line
// counting against an exact per-access recount from an auxiliary tracer.
func TestDenseLineCountsMatchAccessStream(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	p := New(prog.M, Options{Store: StorePerfect})
	recount := &lineRecorder{lines: map[uint64]int64{}}
	in := interp.New(prog.M, &interp.MultiTracer{Tracers: []interp.Tracer{p, recount}})
	in.Run()
	res := p.Result()
	got := map[uint64]int64{}
	for loc, n := range res.Lines {
		got[loc.Key()] = n
	}
	if !reflect.DeepEqual(got, recount.lines) {
		t.Errorf("dense line counts diverge from per-access recount:\n got %v\nwant %v",
			got, recount.lines)
	}
}

type lineRecorder struct {
	lines map[uint64]int64
}

func (r *lineRecorder) ProcessBatch(_ *ir.Module, evs []interp.Ev) {
	for i := range evs {
		if ev := &evs[i]; ev.Kind() <= interp.EvStore {
			r.lines[ev.Loc.Key()]++
		}
	}
}

// TestSampledRebalancingPreservesDeps: sampling the balancer statistics
// must not change profiling results across worker counts.
func TestSampledRebalancingPreservesDeps(t *testing.T) {
	serial := Profile(workloads.MustBuild("CG", 1).M, Options{Store: StorePerfect})
	for _, workers := range []int{2, 4, 8} {
		par := Profile(workloads.MustBuild("CG", 1).M, Options{
			Store: StorePerfect, Workers: workers, ChunkSize: 64, rebalanceInterval: 25})
		fp, fn := DiffDeps(par.Deps, serial.Deps)
		if len(fp) != 0 || len(fn) != 0 {
			t.Errorf("%d workers: sampled rebalancing changed deps (fp=%d fn=%d)",
				workers, len(fp), len(fn))
		}
	}
}
