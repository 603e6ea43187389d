package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/obs"
)

// Job is one unit of batch work: a module to analyze, identified by name.
// Each job must own its module — the Profile stage numbers the module's
// static memory operations in place, so sharing one *ir.Module between
// concurrently running jobs is a data race.
type Job struct {
	// Name identifies the job in results (e.g. the workload name).
	Name string
	// Mod is the module to analyze.
	Mod *ir.Module
	// Opt overrides the engine-wide default options when non-nil.
	Opt *Options
	// TraceID identifies the job's span trace fleet-wide. A coordinator
	// propagates it to workers (the X-DP-Trace header), so the worker's
	// spans land in the same trace. Empty defaults to the job name.
	TraceID string

	index     int       // submission order, stamped on acceptance
	submitted time.Time // when the queue wait began, stamped on acceptance
}

// JobResult is the outcome of one job. Exactly one of Report and Err is
// meaningful: a failing job carries its error and a nil report.
type JobResult struct {
	// Index is the job's submission position, for deterministic ordering.
	Index int
	Name  string
	// Report is the completed analysis (nil when Err != nil).
	Report *Report
	Err    error
	// Elapsed is the job's total wall time inside a worker.
	Elapsed time.Duration
	// QueueLat is the time the job waited between its acceptance (Submit or
	// TrySubmit) and a worker picking it up.
	QueueLat time.Duration
	// Trace is the job's span tree: a root "job" span over the queue wait
	// and every pipeline stage (with any worker-side spans a remote stage
	// grafted in). Present for failed jobs too — the spans up to the
	// failing stage are exactly what a post-mortem needs.
	Trace *obs.Trace
}

// FleetStats aggregates observability counters across all completed jobs
// of an engine. Engine.Stats assembles a snapshot at any time — including
// while jobs are in flight — so a long-lived server can scrape it
// concurrently with running workers.
type FleetStats struct {
	// Submitted is the number of jobs accepted by Submit or TrySubmit so
	// far; Submitted − Jobs is the engine's current in-flight depth (queued
	// or running), of which Queued wait for a worker.
	Submitted int
	Queued    int
	Jobs      int // jobs completed (successfully or not)
	Failed    int
	// Instrs is the total number of executed IR statements.
	Instrs int64
	// Deps is the total number of distinct merged dependences.
	Deps int64
	// Accesses is the total number of profiled memory accesses.
	Accesses int64
	// StoreBytes is the summed access-status store footprint.
	StoreBytes int64
	// Busy is the summed per-job wall time (≥ real elapsed time when the
	// pool runs jobs concurrently).
	Busy time.Duration
	// StageTime is the summed wall time per stage name.
	StageTime map[string]time.Duration
	// CacheHits counts jobs whose Profile stage was served from a
	// ProfileCache or whose whole report came from the report memo (no
	// instrumented execution ran).
	CacheHits int
	// CompileHits counts jobs whose instrumented execution found its
	// bytecode program already in the shared compile cache.
	CompileHits int
	// CompileLat is the distribution of per-job bytecode compile time
	// (only jobs that actually compiled are observed).
	CompileLat LatencyHist
	// QueueLat is the distribution of per-job queue latency (acceptance by
	// Submit or TrySubmit to worker pickup): exact min/max/mean plus a
	// fixed-bucket histogram.
	QueueLat LatencyHist
	// Pool is a snapshot of the shared arena pool's lifetime counters
	// (mem.Default — the pool every instrumented execution draws from).
	Pool mem.PoolStats
}

// Engine fans analysis jobs across a bounded worker pool and streams
// results as they complete. Typical use:
//
//	eng := pipeline.NewEngine(opt)
//	go func() {
//		for _, j := range jobs {
//			eng.Submit(j)
//		}
//		eng.Close()
//	}()
//	for res := range eng.Results() {
//		...
//	}
//
// Submit applies backpressure: it blocks while all workers are busy and the
// job queue is full; TrySubmit reports a full queue instead, which is how a
// server sheds load. Results must be drained, or workers stall handing
// over finished reports. AnalyzeAll wraps this protocol for the common
// submit-everything-then-collect case.
type Engine struct {
	opt      Options
	pipeline *Pipeline
	jobs     chan Job
	results  chan *JobResult
	wg       sync.WaitGroup

	// subMu serializes Submit, TrySubmit and Close so a submission in flight
	// can never race the channel close.
	subMu  sync.Mutex
	closed bool
	// submitted counts accepted jobs and numbers them. Written under subMu
	// but atomic, because Stats must not block on subMu, which Submit holds
	// across its (backpressure-blocking) channel send.
	submitted atomic.Int64

	mu    sync.Mutex // guards stats
	stats FleetStats
}

// NewEngine starts an engine running the default five-stage pipeline with
// opt as the per-job default options. The pool has opt.BatchWorkers
// workers (one per CPU when 0) and the job queue one slot per worker.
func NewEngine(opt Options) *Engine {
	return NewEngineWith(New(), opt, 0)
}

// NewEngineWith starts an engine running a custom pipeline — e.g.
// ProfilePipeline() for profile-only batch runs — whose job queue holds
// queueDepth submissions that no worker has picked up yet (0 = one per
// worker).
func NewEngineWith(pl *Pipeline, opt Options, queueDepth int) *Engine {
	workers := opt.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Each job with a parallel profiler runs 1 producer plus
		// opt.Profiler.Workers spin-waiting pipeline goroutines; divide
		// the pool so the default does not oversubscribe the cores the
		// producers need. Explicit BatchWorkers always wins. The default
		// inspects only the engine-wide options — callers enabling
		// parallel profiling through per-job Job.Opt overrides should
		// size BatchWorkers themselves.
		if pw := opt.Profiler.Workers; pw > 0 {
			workers /= pw + 1
		}
		if workers < 1 {
			workers = 1
		}
	}
	if queueDepth <= 0 {
		queueDepth = workers
	}
	e := &Engine{
		opt:      opt,
		pipeline: pl,
		jobs:     make(chan Job, queueDepth),
		results:  make(chan *JobResult, workers),
	}
	e.stats.StageTime = map[string]time.Duration{}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.run()
	}
	return e
}

// Submit enqueues one job. It panics if the engine is closed and blocks
// while the queue is full (backpressure).
func (e *Engine) Submit(j Job) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		panic("pipeline: Submit on closed engine")
	}
	e.enqueue(j)
}

// TrySubmit enqueues one job if the queue has room and reports whether it
// did: false means the queue is full or the engine closed. It does not wait
// for room (only for a Submit blocked on a full queue, which a caller of
// TrySubmit alone never meets).
func (e *Engine) TrySubmit(j Job) bool {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	// Senders are serialized by subMu and receivers only make room, so a
	// queue seen with room here takes the send below without blocking.
	if e.closed || len(e.jobs) == cap(e.jobs) {
		return false
	}
	e.enqueue(j)
	return true
}

// enqueue stamps the job's submission index and the time its queue wait
// starts, and sends it to the workers. Callers hold subMu.
func (e *Engine) enqueue(j Job) {
	j.index = int(e.submitted.Add(1) - 1)
	j.submitted = time.Now()
	e.jobs <- j
}

// Results returns the stream of completed jobs, in completion order. The
// channel closes after Close once every submitted job has been delivered.
func (e *Engine) Results() <-chan *JobResult { return e.results }

// Close marks the end of submissions. The results channel closes once all
// in-flight jobs finish.
func (e *Engine) Close() {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.jobs)
	go func() {
		e.wg.Wait()
		close(e.results)
	}()
}

// Stats returns a snapshot of the fleet-level counters accumulated so far.
// It is safe to call concurrently with Submit, running workers, and other
// Stats calls: every field is assembled under the stats lock (or read from
// its own synchronized source), and the returned value shares no mutable
// state with the engine, so a long-lived server can scrape it while jobs
// are in flight.
func (e *Engine) Stats() FleetStats {
	e.mu.Lock()
	s := e.stats
	s.StageTime = make(map[string]time.Duration, len(e.stats.StageTime))
	for k, v := range e.stats.StageTime {
		s.StageTime[k] = v
	}
	e.mu.Unlock()
	s.Submitted = int(e.submitted.Load())
	s.Queued = len(e.jobs)
	s.Pool = mem.Default.Stats()
	return s
}

func (e *Engine) run() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.results <- e.runJob(j)
	}
}

// runJob executes one job through the pipeline, isolating failures: a
// panicking interpreter (out-of-range access, deadlock...) or a failing
// stage yields an error result instead of sinking the batch.
func (e *Engine) runJob(j Job) (res *JobResult) {
	start := time.Now()
	res = &JobResult{Index: j.index, Name: j.Name, QueueLat: start.Sub(j.submitted)}
	traceID := j.TraceID
	if traceID == "" {
		traceID = j.Name
	}
	rec := obs.NewRecorder(traceID)
	root := rec.Start("job")
	rec.AnnotateSpan(root, "name", j.Name)
	rec.AddInterval("queue", j.submitted, start, root)
	opt := e.opt
	if j.Opt != nil {
		opt = *j.Opt
	}
	ctx := &Context{Mod: j.Mod, Opt: opt, Rec: rec}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("job %q: panic: %v", j.Name, r)
		}
		res.Elapsed = time.Since(start)
		rec.End(root)
		res.Trace = rec.Trace()
		e.record(res, ctx)
	}()
	if err := e.analyze(ctx, root); err != nil {
		res.Err = err
		return res
	}
	res.Report = ctx.Report()
	return res
}

// analyze runs the pipeline on ctx. With Options.Reports set the job is
// looked up there first: a hit runs no stage, is recorded as one "memo" span
// under parent, and resolves the suggestions against the job's own module;
// identical jobs in flight share one run.
// Only a successful analysis is kept: a failed one, a panic or a remote
// stage's local fallback leaves no entry. The memo is consulted here and not
// inside Pipeline.Run, which a remote stage's fallback re-enters on the same
// Context.
func (e *Engine) analyze(ctx *Context, parent int) error {
	o := &ctx.Opt
	if o.Reports == nil {
		return e.pipeline.Run(ctx)
	}
	start := time.Now()
	var err error
	rep, hit := o.Reports.DoKeep(
		reportKey{ctx.Mod.ContentHash(), o.Profiler, o.Threads, o.BottomUpCUs, o.MaxInstrs},
		func() (*WireReport, bool) {
			if err = e.pipeline.Run(ctx); err != nil || ctx.LocalFallback {
				return nil, false
			}
			memo := summary(ctx.Report())
			memo.CacheHit = true // as every job it answers will report
			return memo, true
		})
	if !hit {
		return err
	}
	err = ctx.FromWire(rep)
	rec := ctx.Recorder()
	rec.AnnotateSpan(rec.AddInterval("memo", start, time.Now(), parent), "cache_hit", "true")
	return err
}

// record folds one finished job into the fleet stats.
func (e *Engine) record(res *JobResult, ctx *Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Jobs++
	e.stats.Busy += res.Elapsed
	e.stats.QueueLat.Observe(res.QueueLat)
	if res.Err != nil {
		e.stats.Failed++
	}
	if ctx.CacheHit {
		e.stats.CacheHits++
	}
	if ctx.CompileHit {
		e.stats.CompileHits++
	}
	if ctx.CompileTime > 0 {
		e.stats.CompileLat.Observe(ctx.CompileTime)
	}
	e.stats.Instrs += ctx.Instrs
	if ctx.Profile != nil {
		e.stats.Deps += int64(len(ctx.Profile.Deps))
		e.stats.Accesses += ctx.Profile.Accesses
		e.stats.StoreBytes += ctx.Profile.StoreBytes
	} else {
		// Remote stage: the profile stayed on the worker; fold the wire
		// summary's dependence count so fleet totals still move.
		e.stats.Deps += int64(ctx.DepCount)
	}
	for _, st := range ctx.Times {
		e.stats.StageTime[st.Stage] += st.D
	}
}

// AnalyzeAll analyzes the jobs concurrently on a bounded worker pool (size
// opt.BatchWorkers, one per CPU when 0) and returns one result per job in
// submission order. Failing jobs are isolated: their results carry the
// error, the rest of the batch completes normally.
func AnalyzeAll(jobs []Job, opt Options) []*JobResult {
	results, _ := AnalyzeAllWith(New(), jobs, opt)
	return results
}

// AnalyzeAllStats is AnalyzeAll plus the engine's fleet-level stats.
func AnalyzeAllStats(jobs []Job, opt Options) ([]*JobResult, FleetStats) {
	return AnalyzeAllWith(New(), jobs, opt)
}

// ProfileAll runs the profile-only pipeline over the jobs concurrently,
// returning results in submission order.
func ProfileAll(jobs []Job, opt Options) []*JobResult {
	results, _ := AnalyzeAllWith(ProfilePipeline(), jobs, opt)
	return results
}

// AnalyzeAllWith runs the jobs through a custom stage sequence (e.g. a
// remote stage shipping modules to a worker fleet) on the bounded pool,
// returning one result per job in submission order plus fleet stats.
func AnalyzeAllWith(pl *Pipeline, jobs []Job, opt Options) ([]*JobResult, FleetStats) {
	e := NewEngineWith(pl, opt, 0)
	go func() {
		for _, j := range jobs {
			e.Submit(j)
		}
		e.Close()
	}()
	out := make([]*JobResult, len(jobs))
	for r := range e.Results() {
		out[r.Index] = r
	}
	return out, e.Stats()
}
