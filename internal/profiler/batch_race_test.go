package profiler

import (
	"reflect"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/workloads"
)

// TestBatchedMTMatchesPerAccess is the PR 8 multi-threaded differential:
// on every MT workload, across worker counts, the VM's event chunks must
// produce a dependence table identical to the one the same profiler builds
// from the per-event stream (interp.PerEvent: every Tracer call packed back
// into a one-event chunk by the adapter). Running the package under -race
// additionally checks that chunks crossing to the workers, and the barriers
// at lock/unlock/thread-end events, stay properly synchronized.
func TestBatchedMTMatchesPerAccess(t *testing.T) {
	for _, workers := range []int{0, 2, 4} {
		for _, name := range workloads.Names("Starbench-MT") {
			opts := Options{Store: StorePerfect, MT: true, Workers: workers}
			m := workloads.MustBuild(name, 1).M
			pe := New(m, opts)
			interp.New(m, interp.PerEvent(pe)).Run()
			per := pe.Result()
			bat := Profile(workloads.MustBuild(name, 1).M, opts)
			fp, fn := DiffDeps(bat.Deps, per.Deps)
			if len(fp) != 0 || len(fn) != 0 {
				t.Errorf("%s (%d workers): batched deps diverged from per-access (fp=%d fn=%d)",
					name, workers, len(fp), len(fn))
			}
			if bat.Accesses != per.Accesses {
				t.Errorf("%s (%d workers): access counts diverged: batched %d, per-access %d",
					name, workers, bat.Accesses, per.Accesses)
			}
			if !reflect.DeepEqual(bat.Lines, per.Lines) {
				t.Errorf("%s (%d workers): line counts diverged", name, workers)
			}
		}
	}
}

// TestBatchedAndReplayedProfilersAgreeInOneRun drives two profilers from a
// single interpreter run through MultiTracer: the first consumes batches
// directly, the second is wrapped in PerEvent and sees the replayed
// per-event expansion of the very same chunks. Their results must be
// identical — the strongest single-run statement that ProcessBatch and the
// Tracer methods implement the same semantics.
func TestBatchedAndReplayedProfilersAgreeInOneRun(t *testing.T) {
	for _, name := range []string{"CG", "md5-mt", "histogram"} {
		m := workloads.MustBuild(name, 1).M
		direct := New(m, Options{Store: StorePerfect})
		replayed := New(m, Options{Store: StorePerfect})
		in := interp.New(m, &interp.MultiTracer{Tracers: []interp.Tracer{
			direct, interp.PerEvent(replayed)}})
		in.Run()
		dres, rres := direct.Result(), replayed.Result()
		fp, fn := DiffDeps(dres.Deps, rres.Deps)
		if len(fp) != 0 || len(fn) != 0 {
			t.Errorf("%s: batched and replayed profilers diverged in one run (fp=%d fn=%d)",
				name, len(fp), len(fn))
		}
		if dres.Accesses != rres.Accesses || !reflect.DeepEqual(dres.Lines, rres.Lines) {
			t.Errorf("%s: accesses/lines diverged: %d vs %d", name, dres.Accesses, rres.Accesses)
		}
	}
}
