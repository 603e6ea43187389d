package profiler

import (
	"reflect"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// oneByOne re-chunks a stream into one-event chunks: the finest chunking
// there is, against the interpreter's 2048-event flushes.
type oneByOne struct{ interp.Tracer }

func (o oneByOne) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		o.Tracer.ProcessBatch(m, evs[i:i+1])
	}
}

// sameProfile reports how two results of one program differ, "" if they
// do not.
func sameProfile(a, b *Result) string {
	fp, fn := DiffDeps(a.Deps, b.Deps)
	switch {
	case len(fp) != 0 || len(fn) != 0:
		return "dependences diverged"
	case a.Accesses != b.Accesses:
		return "access counts diverged"
	case !reflect.DeepEqual(a.Lines, b.Lines):
		return "line counts diverged"
	}
	return ""
}

// TestBatchedMTMatchesPerAccess is the multi-threaded chunking differential:
// on every MT workload, across worker counts, the profile must not depend on
// how the event stream is chunked — whole interpreter chunks against the same
// stream fed one event per ProcessBatch call. Under -race it additionally
// checks that chunks crossing to the workers stay properly synchronized.
func TestBatchedMTMatchesPerAccess(t *testing.T) {
	for _, workers := range []int{0, 2, 4} {
		for _, name := range workloads.Names("Starbench-MT") {
			opts := Options{Store: StorePerfect, MT: true, Workers: workers}
			m := workloads.MustBuild(name, 1).M
			pe := New(m, opts)
			interp.New(m, oneByOne{pe}).Run()
			bat := Profile(workloads.MustBuild(name, 1).M, opts)
			if diff := sameProfile(bat, pe.Result()); diff != "" {
				t.Errorf("%s (%d workers): whole chunks against one-event chunks: %s", name, workers, diff)
			}
		}
	}
}

// TestBatchedAndReplayedProfilersAgreeInOneRun drives two profilers from a
// single interpreter run through MultiTracer — the first consumes the chunks
// as flushed, the second sees the very same chunks one event at a time — for
// the serial engine and the worker pipeline. Their results must be identical:
// all profiler state that spans events lives outside ProcessBatch's frame.
func TestBatchedAndReplayedProfilersAgreeInOneRun(t *testing.T) {
	for _, opts := range []Options{{}, {Workers: 2}} {
		for _, name := range []string{"CG", "md5-mt", "histogram"} {
			m := workloads.MustBuild(name, 1).M
			direct, single := New(m, opts), New(m, opts)
			interp.New(m, &interp.MultiTracer{Tracers: []interp.Tracer{
				direct, oneByOne{single}}}).Run()
			if diff := sameProfile(direct.Result(), single.Result()); diff != "" {
				t.Errorf("%s (%d workers): whole chunks against one-event chunks: %s", name, opts.Workers, diff)
			}
		}
	}
}
