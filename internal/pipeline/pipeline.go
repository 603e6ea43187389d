// Package pipeline decomposes the three-phase analysis of the paper
// (profiling → CU construction and discovery → ranking) into composable,
// independently-configurable stages wired through a shared Context, and
// provides a concurrent batch engine (Engine) that fans many (module,
// options) jobs across a bounded worker pool.
//
// The default stage sequence mirrors Figure 1.3:
//
//	Profile   — execute the module under instrumentation; the dependence
//	            profiler and the PET builder observe one event stream
//	BuildPET  — finalize the Program Execution Tree and attach dependences
//	BuildCUs  — static scope analysis plus computational-unit construction
//	Discover  — search the CU graph for DOALL/DOACROSS/SPMD/MPMD patterns
//	Rank      — order suggestions by coverage, local speedup, imbalance
//
// Callers that need only part of the pipeline compose fewer stages (see
// ProfilePipeline); a remote backend (remote.Stage) replaces them through
// the same Stage seam. Two optional memos sit around the stages: a
// ProfileCache inside the Profile stage and a ReportMemo ahead of them all
// (Engine).
package pipeline

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"discopop/internal/cu"
	"discopop/internal/discovery"
	"discopop/internal/ir"
	"discopop/internal/obs"
	"discopop/internal/pet"
	"discopop/internal/profiler"
	"discopop/internal/rank"
)

// Options configures one analysis run. The zero value profiles serially
// with the exact store and ranks against 16 threads.
type Options struct {
	// Profiler configures the Profile stage (store kind, signature slots,
	// parallel workers, skip optimization...).
	Profiler profiler.Options
	// Threads caps the local-speedup ranking metric (default 16).
	Threads int
	// BottomUpCUs selects bottom-up CU construction instead of the default
	// top-down Algorithm 3.
	BottomUpCUs bool
	// BatchWorkers bounds the Engine's worker pool. 0 picks a default:
	// one worker per available CPU, divided by Profiler.Workers+1 when
	// per-job parallel profiling is on (each job then runs its own
	// spin-waiting worker goroutines, and oversubscribing the cores
	// starves the producers). It has no effect on a single Analyze call.
	BatchWorkers int
	// Cache, when non-nil, memoizes the Profile stage: a job whose (module
	// content hash, Profiler, MaxInstrs) triple was analyzed before reuses
	// the recorded profile and PET and skips the instrumented execution
	// entirely. Leave it nil for a job that should always profile.
	Cache *ProfileCache
	// CacheKey is ignored: the cache keys on the module's content. The
	// field remains only until bench/ stops setting it (ROADMAP).
	CacheKey string
	// Reports, when non-nil, lets an Engine answer a repeat of a job from
	// the finished report of an earlier one, running no stage. Leave it nil
	// for a job that must always run (dp-serve's inline submissions) or to
	// get full Reports (profile, PET, CUs) for every job.
	Reports *ReportMemo
	// MaxInstrs aborts the instrumented execution (as a job error) after
	// this many leaf statements. 0 = unbounded. Servers set it for
	// untrusted submissions so a tiny module with an effectively infinite
	// loop cannot pin an engine worker.
	MaxInstrs int64
}

// Context carries one job through the stages. Each stage reads the products
// of earlier stages and fills in its own; a stage returns an error if a
// product it requires is missing.
type Context struct {
	Mod *ir.Module
	Opt Options

	// Stage products.
	profiled *profileEntry // the Profile stage's execution, for BuildPET
	Instrs   int64
	// ExecTime is the wall time of the instrumented execution alone —
	// the numerator of profiling-slowdown figures. The profile stage's
	// StageTime additionally includes profiler setup and result merging.
	ExecTime time.Duration
	Profile  *profiler.Result
	PET      *pet.Tree
	Scope    *ir.Scope
	CUs      *cu.Graph
	Analysis *discovery.Analysis
	Ranked   []*discovery.Suggestion

	// CacheHit reports that the Profile stage was served from the cache,
	// or the whole report from the report memo (no instrumented execution
	// ran for this job).
	CacheHit bool

	// CompileTime is the bytecode compilation time this job paid (zero on
	// a compile-cache hit, a profile-cache hit, or under TreeWalk). The
	// profile span's compile_hit attribute says which.
	CompileTime time.Duration

	// DepCount and CUCount mirror len(Profile.Deps) and len(CUs.CUs) for
	// jobs analyzed by a remote stage, where the full products stay on the
	// worker and only the report summary crosses the wire. Use
	// Report.NumDeps/NumCUs to read either form uniformly.
	DepCount int
	CUCount  int
	// RemotePeer is the URL of the peer that served the analysis, empty
	// for local runs.
	RemotePeer string
	// LocalFallback reports that a remote stage ran the local pipeline
	// because no peer could take the job; the report memo keeps no such
	// report, so the next identical job tries the fleet again.
	LocalFallback bool

	// Rec records the job's span tree: Run opens one span per stage
	// (creating the recorder on first use when the caller did not), and
	// stages annotate or graft into the open span through it. The engine
	// seeds it with the job's trace id and wraps the stage spans in a
	// root "job" span. Stage times are read from it (StageTimes).
	Rec *obs.Recorder
}

// Recorder returns the job's span recorder, creating a detached one on
// first use so stages can always annotate without nil checks.
func (c *Context) Recorder() *obs.Recorder {
	if c.Rec == nil {
		c.Rec = obs.NewRecorder("")
	}
	return c.Rec
}

// StageTime is the measured wall time of one stage run.
type StageTime struct {
	Stage string
	D     time.Duration
}

// StageTimes gives the self time of every stage in a job's spans, in the
// order the stages started. A stage is a span this node recorded (empty
// Node) other than the "job" root and the "queue" wait: a pipeline stage, a
// remote hop, a report-memo answer. Its self time excludes its children
// recorded on this node (a remote stage's local fallback runs the pipeline
// inside it), so summing the result counts no interval twice; spans grafted
// from a peer ran during the hop and stay in its time. Every per-stage time
// the service reports comes from here.
func StageTimes(spans []obs.Span) []StageTime {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.Dur
	}
	for _, sp := range spans {
		if sp.Node == "" && sp.Parent >= 0 && sp.Parent < len(spans) {
			self[sp.Parent] -= sp.Dur
		}
	}
	var out []StageTime
	for i, sp := range spans {
		if sp.Node != "" || sp.Name == "queue" || (sp.Name == "job" && sp.Parent < 0) {
			continue
		}
		out = append(out, StageTime{Stage: sp.Name, D: time.Duration(max(self[i], 0))})
	}
	return out
}

// Stage is one step of the analysis pipeline.
type Stage interface {
	Name() string
	Run(*Context) error
}

// Pipeline is an ordered stage sequence.
type Pipeline struct {
	Stages []Stage
}

// New builds the default five-stage pipeline.
func New() *Pipeline {
	return &Pipeline{Stages: []Stage{
		Profile{}, BuildPET{}, BuildCUs{}, Discover{}, Rank{},
	}}
}

// ProfilePipeline builds the Phase-1-only pipeline: profile the execution
// and finalize the PET, skipping CU construction, discovery, and ranking.
func ProfilePipeline() *Pipeline {
	return &Pipeline{Stages: []Stage{Profile{}, BuildPET{}}}
}

// Run executes the stages in order on ctx, one span each. A stage that
// itself runs a nested pipeline (the remote stage's local fallback) nests
// its stages' spans in its own. It stops at the first failing stage.
func (p *Pipeline) Run(ctx *Context) error {
	if ctx.Mod == nil {
		return errors.New("pipeline: context has no module")
	}
	rec := ctx.Recorder()
	for _, s := range p.Stages {
		sp := rec.Start(s.Name())
		err := s.Run(ctx)
		rec.End(sp)
		if err != nil {
			return fmt.Errorf("pipeline: stage %s: %w", s.Name(), err)
		}
	}
	return nil
}

// Profile executes the module under instrumentation: the dependence
// profiler and the PET builder observe one event stream, exactly as Phase 1
// runs the instrumented binary once. With Options.Cache the execution is
// looked up there first; either way it is runProfile that performs it.
type Profile struct{}

// Name implements Stage.
func (Profile) Name() string { return "profile" }

// Run implements Stage.
func (Profile) Run(ctx *Context) error {
	var e *profileEntry
	if c := ctx.Opt.Cache; c != nil {
		e, ctx.CacheHit = c.lookup(ctx.Mod, ctx.Opt.Profiler, ctx.Opt.MaxInstrs)
	} else {
		e = runProfile(ctx.Mod, ctx.Opt.Profiler, ctx.Opt.MaxInstrs)
	}
	if e.err != nil {
		return e.err
	}
	// The profiled module instance is authoritative: downstream stages
	// must resolve regions and functions against the module the
	// dependences and the PET point into.
	ctx.profiled = e
	ctx.Mod = e.mod
	ctx.Profile = e.run.Result
	ctx.Instrs = e.run.Instrs
	ctx.ExecTime = e.run.ExecTime
	rec := ctx.Recorder()
	rec.Annotate("cache_hit", strconv.FormatBool(ctx.CacheHit))
	rec.Annotate("instrs", strconv.FormatInt(ctx.Instrs, 10))
	rec.Annotate("deps", strconv.Itoa(len(ctx.Profile.Deps)))
	if !ctx.CacheHit {
		// A hit paid no compilation; the job that filled the entry did.
		ctx.CompileTime = e.run.CompileTime
		rec.Annotate("compile_hit", strconv.FormatBool(e.run.CompileHit))
	}
	return nil
}

// profileEntry is one instrumented execution and what was observed in it:
// the product of the Profile stage, shared by every job that hits it in a
// ProfileCache.
type profileEntry struct {
	mod *ir.Module
	run profiler.Run
	pb  *pet.Builder
	err error

	// The tree is finished by the first BuildPET stage that asks for it.
	treeOnce sync.Once
	tree     *pet.Tree
}

// runProfile executes mod under a fresh profiler and PET builder. A target
// program that fails at run time is captured as the entry's error, so every
// job sharing the entry fails with the same cause.
func runProfile(mod *ir.Module, opt profiler.Options, maxInstrs int64) *profileEntry {
	e := &profileEntry{mod: mod, pb: pet.NewBuilder()}
	e.run, e.err = profiler.Execute(mod, opt, maxInstrs, e.pb)
	return e
}

// petTree finalizes the PET and annotates it with the profile's per-sink
// dependence counts.
func (e *profileEntry) petTree() *pet.Tree {
	e.treeOnce.Do(func() {
		deps := e.run.Result.Deps
		sinks := make(map[ir.Loc]int64, len(deps))
		for d, n := range deps {
			sinks[d.Sink] += n
		}
		e.tree = e.pb.Tree(e.run.Instrs)
		e.tree.AttachDeps(sinks)
		e.pb = nil // a cached entry lives on; the builder's per-thread stacks need not
	})
	return e.tree
}

// BuildPET finalizes the Program Execution Tree and annotates it with the
// per-sink dependence counts of the profiling result.
type BuildPET struct{}

// Name implements Stage.
func (BuildPET) Name() string { return "build-pet" }

// Run implements Stage.
func (BuildPET) Run(ctx *Context) error {
	if ctx.profiled == nil {
		return errors.New("requires the profile stage")
	}
	ctx.PET = ctx.profiled.petTree()
	return nil
}

// BuildCUs runs the static scope analysis and constructs the
// computational-unit graph (Chapter 3).
type BuildCUs struct{}

// Name implements Stage.
func (BuildCUs) Name() string { return "build-cus" }

// Run implements Stage.
func (BuildCUs) Run(ctx *Context) error {
	if ctx.Profile == nil {
		return errors.New("requires the profile stage")
	}
	ctx.Scope = ir.AnalyzeScopes(ctx.Mod)
	if ctx.Opt.BottomUpCUs {
		ctx.CUs = cu.BuildBottomUp(ctx.Mod, ctx.Scope, ctx.Profile)
	} else {
		ctx.CUs = cu.Build(ctx.Mod, ctx.Scope, ctx.Profile)
	}
	return nil
}

// Discover searches the CU graph for parallelization opportunities
// (Chapter 4), including recursive task functions.
type Discover struct{}

// Name implements Stage.
func (Discover) Name() string { return "discover" }

// Run implements Stage.
func (Discover) Run(ctx *Context) error {
	if ctx.CUs == nil || ctx.Scope == nil {
		return errors.New("requires the build-cus stage")
	}
	ctx.Analysis = discovery.Analyze(ctx.Mod, ctx.Scope, ctx.Profile, ctx.CUs)
	ctx.Analysis.Suggestions = append(ctx.Analysis.Suggestions,
		ctx.Analysis.RecursiveTaskFuncs()...)
	return nil
}

// Rank orders the suggestions by the Section 4.3 metrics.
type Rank struct{}

// Name implements Stage.
func (Rank) Name() string { return "rank" }

// Run implements Stage.
func (Rank) Run(ctx *Context) error {
	if ctx.Analysis == nil {
		return errors.New("requires the discover stage")
	}
	ctx.Ranked = rank.Rank(ctx.Analysis, rank.Options{Threads: ctx.Opt.Threads})
	return nil
}

// Report is the complete result of the three-phase pipeline.
type Report struct {
	Mod      *ir.Module
	Profile  *profiler.Result
	PET      *pet.Tree
	Scope    *ir.Scope
	CUs      *cu.Graph
	Analysis *discovery.Analysis
	// Ranked lists all suggestions, best first.
	Ranked []*discovery.Suggestion
	// Instrs is the number of executed IR statements.
	Instrs int64
	// ExecTime is the wall time of the instrumented execution alone. For a
	// cache-served job this is the recorded time of the original run.
	ExecTime time.Duration
	// CacheHit reports that the profile was served from a ProfileCache or
	// the report from the report memo.
	CacheHit bool
	// DepCount and CUCount carry the dependence and CU counts of a
	// remotely-analyzed job (Profile and CUs stay on the worker).
	DepCount int
	CUCount  int
	// RemotePeer is the URL of the peer that served the analysis, empty
	// for local runs.
	RemotePeer string
	// Times is the self time of every stage the job ran (StageTimes).
	Times []StageTime
}

// NumDeps returns the number of distinct dependences, whether the full
// profile is present (local analysis) or only the wire summary (remote).
func (r *Report) NumDeps() int {
	if r.Profile != nil {
		return len(r.Profile.Deps)
	}
	return r.DepCount
}

// NumCUs returns the number of computational units, local or remote.
func (r *Report) NumCUs() int {
	if r.CUs != nil {
		return len(r.CUs.CUs)
	}
	return r.CUCount
}

// Report assembles the stage products into a Report.
func (c *Context) Report() *Report {
	return &Report{
		Mod:        c.Mod,
		Profile:    c.Profile,
		PET:        c.PET,
		Scope:      c.Scope,
		CUs:        c.CUs,
		Analysis:   c.Analysis,
		Ranked:     c.Ranked,
		Instrs:     c.Instrs,
		ExecTime:   c.ExecTime,
		CacheHit:   c.CacheHit,
		DepCount:   c.DepCount,
		CUCount:    c.CUCount,
		RemotePeer: c.RemotePeer,
		Times:      StageTimes(c.Recorder().Spans()),
	}
}

// SuggestionFor returns the report's suggestion covering the given loop
// region, or nil.
func (r *Report) SuggestionFor(reg *ir.Region) *discovery.Suggestion {
	for _, s := range r.Ranked {
		if s.Region == reg {
			return s
		}
	}
	return nil
}
