// Package discopop is the public API of DiscoPoP-Go, a reproduction of the
// parallelism-discovery framework of "Discovery of Potential Parallelism in
// Sequential Programs" (Li; ICPP'13 / TU Darmstadt dissertation, 2016).
//
// The pipeline follows Figure 1.3 of the paper:
//
//  1. Phase 1 — the target program (an IR module) is executed under
//     instrumentation; the data-dependence profiler (Chapter 2) records
//     merged <sink, type, source> dependences, control-region execution
//     counts, and the Program Execution Tree.
//  2. Phase 2 — computational units are constructed (Chapter 3) and the
//     discovery algorithms search the CU graph for DOALL and DOACROSS
//     loops and SPMD/MPMD tasks (Chapter 4).
//  3. Phase 3 — suggestions are ranked by instruction coverage, local
//     speedup, and CU imbalance (Section 4.3).
//
// The phases are implemented as composable stages (internal/pipeline);
// Analyze runs the default stage sequence on one module.
//
// Quick start, one module:
//
//	prog := discopop.Workload("histogram", 1)
//	report := discopop.Analyze(prog.M, discopop.Options{})
//	for _, s := range report.Ranked {
//	    fmt.Println(s)
//	}
//
// Quick start, a batch: AnalyzeAll fans jobs across a bounded worker pool
// (Options.BatchWorkers wide, one worker per CPU by default) and returns
// one result per job in submission order. A failing job carries its error
// in JobResult.Err without sinking the rest of the batch:
//
//	var jobs []discopop.Job
//	for _, name := range discopop.WorkloadNames("NAS") {
//	    jobs = append(jobs, discopop.Job{Name: name, Mod: discopop.Workload(name, 1).M})
//	}
//	for _, res := range discopop.AnalyzeAll(jobs, discopop.Options{}) {
//	    if res.Err != nil {
//	        log.Printf("%s failed: %v", res.Name, res.Err)
//	        continue
//	    }
//	    fmt.Println(res.Name, res.Report.Ranked[0])
//	}
//
// Each job must own its module: the profiler numbers a module's static
// memory operations in place, so two concurrent jobs must not share one
// *Module. For streamed results and fleet-level statistics (total
// instructions, dependences, store bytes, per-stage wall time), use
// NewEngine directly and drain Engine.Results while submitting.
package discopop

import (
	"discopop/internal/cu"
	"discopop/internal/discovery"
	"discopop/internal/ir"
	"discopop/internal/pet"
	"discopop/internal/pipeline"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// Re-exported core types, so that downstream users interact with one
// package for the common path.
type (
	// Module is an IR module, the analyzable unit.
	Module = ir.Module
	// Region is a control region (function body, loop, branch).
	Region = ir.Region
	// ProfileResult is the output of the data-dependence profiler.
	ProfileResult = profiler.Result
	// Dep is one merged data dependence.
	Dep = profiler.Dep
	// CUGraph is the computational-unit graph.
	CUGraph = cu.Graph
	// Suggestion is one ranked parallelization opportunity.
	Suggestion = discovery.Suggestion
	// Program is a built benchmark workload with ground truth.
	Program = workloads.Program
	// PETree is the program execution tree.
	PETree = pet.Tree

	// Options configures an analysis run. The zero value profiles
	// serially with the exact store.
	Options = pipeline.Options
	// Report is the complete result of the three-phase pipeline.
	Report = pipeline.Report
	// Job is one (name, module, options) unit of batch work.
	Job = pipeline.Job
	// JobResult is the outcome of one batch job: a report or an error.
	JobResult = pipeline.JobResult
	// Engine is the concurrent batch-analysis engine: Submit jobs, drain
	// Results, Close when done.
	Engine = pipeline.Engine
	// FleetStats aggregates counters across an engine's completed jobs.
	FleetStats = pipeline.FleetStats
	// ProfileCache memoizes the Profile stage across jobs keyed by (module
	// content hash, profiling options, instruction budget): sweeps that
	// re-analyze the same workload skip re-profiling entirely. Bounded:
	// least recently used entries are evicted beyond the entry cap.
	ProfileCache = pipeline.ProfileCache
	// LatencyHist summarizes the per-job queue latency distribution on
	// FleetStats (exact min/max/mean, fixed-bucket histogram, estimated
	// median).
	LatencyHist = pipeline.LatencyHist
)

// Suggestion kinds, re-exported.
const (
	DOALL          = discovery.DOALL
	DOALLReduction = discovery.DOALLReduction
	DOACROSS       = discovery.DOACROSS
	SPMDTask       = discovery.SPMDTask
	MPMDTask       = discovery.MPMDTask
	Sequential     = discovery.Sequential
)

// Analyze runs the full pipeline on a module.
func Analyze(m *Module, opt Options) *Report {
	ctx := &pipeline.Context{Mod: m, Opt: opt}
	if err := pipeline.New().Run(ctx); err != nil {
		// The default stages fail only on misconfigured contexts, which a
		// non-nil module rules out; runtime errors panic as they always
		// have (use AnalyzeAll or an Engine for isolation).
		panic(err)
	}
	return ctx.Report()
}

// AnalyzeAll analyzes the jobs concurrently on a bounded worker pool
// (opt.BatchWorkers wide, one worker per CPU when 0). opt is the default
// for jobs that carry no options of their own. Results arrive in
// submission order; failing jobs are isolated in their JobResult.Err.
func AnalyzeAll(jobs []Job, opt Options) []*JobResult {
	return pipeline.AnalyzeAll(jobs, opt)
}

// AnalyzeAllStats is AnalyzeAll plus fleet-level statistics.
func AnalyzeAllStats(jobs []Job, opt Options) ([]*JobResult, FleetStats) {
	return pipeline.AnalyzeAllStats(jobs, opt)
}

// NewEngine starts a batch engine for streaming use: Submit jobs from one
// goroutine, range over Results in another, Close after the last Submit.
func NewEngine(opt Options) *Engine {
	return pipeline.NewEngine(opt)
}

// NewProfileCache returns an empty Profile-stage cache with the default
// entry cap. Share one instance across the Options of every job in a sweep
// (set Options.Cache); jobs whose modules have equal content and whose
// Profiler options and MaxInstrs agree then profile once.
func NewProfileCache() *ProfileCache {
	return pipeline.NewProfileCache()
}

// NewProfileCacheSize returns an empty Profile-stage cache evicting
// least-recently-used entries beyond max (0 = unbounded).
func NewProfileCacheSize(max int) *ProfileCache {
	return pipeline.NewProfileCacheSize(max)
}

// Workload builds one of the bundled benchmark programs by name (see
// WorkloadNames). Scale 1 is the default size.
func Workload(name string, scale int) *Program {
	return workloads.MustBuild(name, scale)
}

// WorkloadNames lists the bundled workloads of a suite ("" for all).
func WorkloadNames(suite string) []string { return workloads.Names(suite) }
