package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// reportText renders everything of a finished Context that a cached and an
// uncached analysis must agree on.
func reportText(ctx *Context) string {
	var sb strings.Builder
	rep := ctx.Report()
	rep.Profile.WriteDepFile(&sb, false)
	sb.WriteString(rep.PET.Render())
	for _, s := range rep.Ranked {
		fmt.Fprintln(&sb, s)
	}
	fmt.Fprintln(&sb, rep.Instrs)
	for _, st := range rep.Times {
		fmt.Fprintln(&sb, st.Stage)
	}
	return sb.String()
}

// TestCachedMatchesUncached: over the workload registry, a job that goes
// through a ProfileCache (a miss: the cache is fresh) and one that does not
// produce the same dependence file, PET, ranked list, statement count and
// stage sequence; a faulting module fails with the same error text.
func TestCachedMatchesUncached(t *testing.T) {
	names := workloads.Names("")
	if testing.Short() {
		names = names[:len(names)/4]
	}
	for _, name := range names {
		var texts [2]string
		for i, opt := range []Options{{}, {Cache: NewProfileCache()}} {
			ctx := &Context{Mod: workloads.MustBuild(name, 1).M, Opt: opt}
			if err := New().Run(ctx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			texts[i] = reportText(ctx)
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: the cached report differs from the uncached one:\n%s\n---\n%s", name, texts[1], texts[0])
		}
	}
	var errs [2]string
	for i, opt := range []Options{{}, {Cache: NewProfileCache()}} {
		err := New().Run(&Context{Mod: badModule(), Opt: opt})
		if err == nil {
			t.Fatal("the faulting module was analysed without an error")
		}
		errs[i] = err.Error()
	}
	if errs[0] != errs[1] {
		t.Errorf("uncached error %q, cached error %q", errs[0], errs[1])
	}
}

// freshModule builds a module no earlier test (or -count iteration) has
// compiled: the wall clock is one of its constants, so its content hash is new
// to the process-wide compile cache.
func freshModule() *ir.Module {
	b := ir.NewBuilder("fresh")
	arr := b.GlobalArray("arr", ir.F64, 16)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(16), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.CF(float64(time.Now().UnixNano())))
	})
	return b.Build(fb.Done())
}

// TestCachedMissReportsCompile: a job whose profile the cache did not hold
// compiled its module, and says so — in its profile span and in the fleet's
// compile latency distribution, as a job without a cache always has.
func TestCachedMissReportsCompile(t *testing.T) {
	opt := Options{Cache: NewProfileCache()}
	results, stats := AnalyzeAllStats([]Job{{Name: "fresh", Mod: freshModule(), Opt: &opt}}, Options{BatchWorkers: 1})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Report.CacheHit {
		t.Fatal("a fresh module hit the profile cache")
	}
	compiled := 0
	for _, s := range results[0].Trace.Spans {
		if s.Name == "profile" && s.Attrs["compile_hit"] == "false" {
			compiled++
		}
	}
	if compiled != 1 {
		t.Errorf("%d profile spans with compile_hit=false, want 1", compiled)
	}
	// Only a job that compiled, and took a positive time to, is observed.
	if stats.CompileLat.Count != 1 {
		t.Errorf("FleetStats: %d compile latency samples, want 1", stats.CompileLat.Count)
	}
}

// TestTrySubmitFullAndClosed: TrySubmit takes a job while the queue has
// room, and answers false — it neither blocks nor panics — on a full queue
// and on a closed engine.
func TestTrySubmitFullAndClosed(t *testing.T) {
	picked := make(chan struct{}, 3) // one send per accepted job
	release := make(chan struct{})
	hold := &Pipeline{Stages: []Stage{stageFunc{name: "hold", f: func(*Context) error {
		picked <- struct{}{}
		<-release
		return nil
	}}}}
	e := NewEngineWith(hold, Options{BatchWorkers: 1}, 2)
	job := Job{Name: "j", Mod: badModule()} // never executed: the stage only waits
	if !e.TrySubmit(job) {
		t.Fatal("TrySubmit refused a job on an empty queue")
	}
	<-picked // the one worker holds the first job; the queue is empty again
	for i := 0; i < 2; i++ {
		if !e.TrySubmit(job) {
			t.Fatalf("TrySubmit refused job %d of a queue of depth 2", i+1)
		}
	}
	if e.TrySubmit(job) {
		t.Error("TrySubmit accepted a job on a full queue")
	}
	if s := e.Stats(); s.Queued != 2 || s.Submitted != 3 {
		t.Errorf("Stats: %d queued, %d submitted; want 2 and 3 (a refused job is not counted)", s.Queued, s.Submitted)
	}
	close(release)
	e.Close()
	if e.TrySubmit(job) {
		t.Error("TrySubmit accepted a job on a closed engine")
	}
	n := 0
	for r := range e.Results() {
		if r.Err != nil {
			t.Error(r.Err)
		}
		n++
	}
	if n != 3 {
		t.Errorf("%d results, want the 3 accepted jobs", n)
	}
}
