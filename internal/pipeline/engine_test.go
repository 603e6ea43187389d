package pipeline

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// nasJobs builds one job per NAS workload (8 programs), each owning a
// fresh module.
func nasJobs(t testing.TB, scale int) []Job {
	t.Helper()
	names := workloads.Names("NAS")
	if len(names) < 8 {
		t.Fatalf("want ≥8 NAS workloads, have %d", len(names))
	}
	jobs := make([]Job, len(names))
	for i, name := range names {
		jobs[i] = Job{Name: name, Mod: workloads.MustBuild(name, scale).M}
	}
	return jobs
}

// TestAnalyzeAllMatchesSerial analyzes 8 workloads concurrently and checks
// every report against a serial run of the same workload: same dependence
// sets, same suggestion count — the engine must not perturb analysis.
func TestAnalyzeAllMatchesSerial(t *testing.T) {
	jobs := nasJobs(t, 1)
	results := AnalyzeAll(jobs, Options{BatchWorkers: 4})
	if len(results) != len(jobs) {
		t.Fatalf("want %d results, got %d", len(jobs), len(results))
	}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %s failed: %v", jr.Name, jr.Err)
		}
		if jr.Index != i || jr.Name != jobs[i].Name {
			t.Fatalf("result %d out of order: index %d name %s", i, jr.Index, jr.Name)
		}
		serial := workloads.MustBuild(jr.Name, 1)
		ctx := &Context{Mod: serial.M}
		if err := New().Run(ctx); err != nil {
			t.Fatal(err)
		}
		fp, fn := profiler.DiffDeps(jr.Report.Profile.Deps, ctx.Profile.Deps)
		if len(fp) != 0 || len(fn) != 0 {
			t.Errorf("%s: batch deps diverge from serial: fp=%d fn=%d", jr.Name, len(fp), len(fn))
		}
		if len(jr.Report.Ranked) != len(ctx.Ranked) {
			t.Errorf("%s: batch ranked %d suggestions, serial %d",
				jr.Name, len(jr.Report.Ranked), len(ctx.Ranked))
		}
	}
}

// TestAnalyzeAllDeterministicOrdering submits jobs with wildly different
// costs several times and checks results always come back in submission
// order regardless of completion order.
func TestAnalyzeAllDeterministicOrdering(t *testing.T) {
	for round := 0; round < 3; round++ {
		names := []string{"BT", "histogram", "CG", "prefix-sum", "LU", "matmul", "SP", "EP"}
		jobs := make([]Job, len(names))
		for i, name := range names {
			jobs[i] = Job{Name: name, Mod: workloads.MustBuild(name, 1).M}
		}
		results := AnalyzeAll(jobs, Options{BatchWorkers: 4})
		for i, jr := range results {
			if jr == nil || jr.Name != names[i] {
				t.Fatalf("round %d: slot %d holds %v, want %s", round, i, jr, names[i])
			}
		}
	}
}

// badModule builds a module whose execution panics inside the interpreter
// (array index out of range), the realistic per-job failure mode.
func badModule() *ir.Module {
	b := ir.NewBuilder("bad")
	arr := b.GlobalArray("arr", ir.F64, 4)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(10), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.CF(1)) // i reaches 9 > len(arr)
	})
	return b.Build(fb.Done())
}

// TestJobErrorIsolation mixes failing jobs (runtime panic, nil module)
// into a batch and checks the healthy jobs still complete.
func TestJobErrorIsolation(t *testing.T) {
	jobs := []Job{
		{Name: "good-1", Mod: workloads.MustBuild("histogram", 1).M},
		{Name: "panics", Mod: badModule()},
		{Name: "good-2", Mod: workloads.MustBuild("matmul", 1).M},
		{Name: "no-module", Mod: nil},
		{Name: "good-3", Mod: workloads.MustBuild("prefix-sum", 1).M},
	}
	results, stats := AnalyzeAllStats(jobs, Options{BatchWorkers: 2})
	for _, i := range []int{0, 2, 4} {
		if results[i].Err != nil {
			t.Errorf("healthy job %s sunk by batch: %v", results[i].Name, results[i].Err)
		}
		if results[i].Report == nil || len(results[i].Report.Ranked) == 0 {
			t.Errorf("healthy job %s has no report", results[i].Name)
		}
	}
	if results[1].Err == nil || results[1].Report != nil {
		t.Error("panicking job did not report its error")
	}
	if results[3].Err == nil {
		t.Error("nil-module job did not report its error")
	}
	if stats.Jobs != 5 || stats.Failed != 2 {
		t.Errorf("fleet stats wrong: %+v", stats)
	}
}

// TestFailedJobLeaksNoPipelineGoroutines: a panicking module profiled
// with parallel workers must not leave the profiler's worker goroutines
// spinning after the job's error is reported.
func TestFailedJobLeaksNoPipelineGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := []Job{{Name: "panics", Mod: badModule(),
		Opt: &Options{Profiler: profiler.Options{Store: profiler.StorePerfect, Workers: 4}}}}
	results := AnalyzeAll(jobs, Options{BatchWorkers: 1})
	if results[0].Err == nil {
		t.Fatal("job did not fail")
	}
	// Give exited goroutines a moment to be reaped.
	var after int
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		if after = runtime.NumGoroutine(); after <= before+1 {
			break
		}
	}
	if after > before+1 {
		t.Errorf("goroutines grew from %d to %d after failed parallel-profiling job",
			before, after)
	}
}

// TestEngineStreamsAndAggregates drives the engine directly — concurrent
// Submit, streamed Results — and checks the fleet stats add up.
func TestEngineStreamsAndAggregates(t *testing.T) {
	jobs := nasJobs(t, 1)
	e := NewEngine(Options{BatchWorkers: 3})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, j := range jobs {
			e.Submit(j)
		}
		e.Close()
	}()
	var total int64
	seen := map[string]bool{}
	for jr := range e.Results() {
		if jr.Err != nil {
			t.Errorf("%s: %v", jr.Name, jr.Err)
			continue
		}
		seen[jr.Name] = true
		total += jr.Report.Instrs
	}
	wg.Wait()
	if len(seen) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(jobs))
	}
	stats := e.Stats()
	if stats.Jobs != len(jobs) || stats.Failed != 0 {
		t.Errorf("stats jobs=%d failed=%d", stats.Jobs, stats.Failed)
	}
	if stats.Instrs != total {
		t.Errorf("fleet instrs %d != summed report instrs %d", stats.Instrs, total)
	}
	if stats.Deps == 0 || stats.Accesses == 0 {
		t.Error("fleet dep/access counters empty")
	}
	for _, stage := range []string{"profile", "build-pet", "build-cus", "discover", "rank"} {
		if _, ok := stats.StageTime[stage]; !ok {
			t.Errorf("no aggregated time for stage %s", stage)
		}
	}
	if stats.Submitted != len(jobs) {
		t.Errorf("stats submitted=%d, want %d", stats.Submitted, len(jobs))
	}
	if stats.Pool.Gets == 0 || stats.Pool.Puts == 0 {
		t.Errorf("arena pool counters not surfaced: %+v", stats.Pool)
	}
	if stats.Pool.Fresh > stats.Pool.Gets {
		t.Errorf("pool Fresh %d exceeds Gets %d", stats.Pool.Fresh, stats.Pool.Gets)
	}
}

// TestStatsConcurrentWithWorkers scrapes Engine.Stats in a tight loop while
// jobs are in flight — the long-lived-server pattern, guarded under -race.
func TestStatsConcurrentWithWorkers(t *testing.T) {
	jobs := nasJobs(t, 1)
	e := NewEngine(Options{BatchWorkers: 3})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		last := FleetStats{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := e.Stats()
			if s.Jobs < last.Jobs || s.Submitted < last.Submitted {
				t.Errorf("stats went backwards: %+v after %+v", s, last)
				return
			}
			if s.Jobs > s.Submitted {
				t.Errorf("completed %d > submitted %d", s.Jobs, s.Submitted)
				return
			}
			last = s
		}
	}()
	go func() {
		for _, j := range jobs {
			e.Submit(j)
		}
		e.Close()
	}()
	for jr := range e.Results() {
		if jr.Err != nil {
			t.Errorf("%s: %v", jr.Name, jr.Err)
		}
	}
	close(stop)
	wg.Wait()
	if s := e.Stats(); s.Submitted != len(jobs) || s.Jobs != len(jobs) {
		t.Errorf("final stats submitted=%d jobs=%d, want %d", s.Submitted, s.Jobs, len(jobs))
	}
}

// TestEngineMTJobsConcurrently runs multi-threaded-target profiling jobs
// (each spinning up its own worker pipeline) side by side on the
// engine — the stress case for shared-state guarding under -race.
func TestEngineMTJobsConcurrently(t *testing.T) {
	names := workloads.Names("Starbench-MT")
	jobs := make([]Job, len(names))
	for i, name := range names {
		jobs[i] = Job{Name: name, Mod: workloads.MustBuild(name, 1).M}
	}
	opt := Options{
		Profiler:     profiler.Options{Store: profiler.StorePerfect, MT: true, Workers: 4},
		BatchWorkers: 4,
	}
	for _, jr := range AnalyzeAll(jobs, opt) {
		if jr.Err != nil {
			t.Errorf("%s: %v", jr.Name, jr.Err)
			continue
		}
		if jr.Report.Profile.Accesses == 0 {
			t.Errorf("%s: no accesses profiled", jr.Name)
		}
	}
}

// TestPerJobOptionOverride: a job's own options must win over the engine
// default.
func TestPerJobOptionOverride(t *testing.T) {
	sig := Options{Profiler: profiler.Options{Store: profiler.StoreSignature, Slots: 1 << 12}}
	jobs := []Job{
		{Name: "default", Mod: workloads.MustBuild("histogram", 1).M},
		{Name: "override", Mod: workloads.MustBuild("histogram", 1).M, Opt: &sig},
	}
	results := AnalyzeAll(jobs, Options{})
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	defBytes := results[0].Report.Profile.StoreBytes
	sigBytes := results[1].Report.Profile.StoreBytes
	if defBytes == sigBytes {
		t.Errorf("option override had no effect: both store %d bytes", defBytes)
	}
}

// TestSubmitAfterClosePanics locks in the misuse contract.
func TestSubmitAfterClosePanics(t *testing.T) {
	e := NewEngine(Options{BatchWorkers: 1})
	e.Close()
	defer func() {
		if recover() == nil {
			t.Error("Submit after Close did not panic")
		}
	}()
	e.Submit(Job{Name: "late"})
}
