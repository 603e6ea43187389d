package remote

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discopop/internal/discovery"
	"discopop/internal/ir"
	"discopop/internal/lru"
	"discopop/internal/pipeline"
	"discopop/internal/profiler"
)

// Stage is a pipeline.Stage that ships the job's module to a peer
// dp-serve worker instead of analyzing it locally. The module is encoded
// with the versioned codec, submitted over POST /v1/analyze, and the
// worker's report summary is mapped back into the local Context:
// suggestion locations resolve against the local module (the codec is
// deterministic, so worker and coordinator agree on every <file:line>),
// making Report.SuggestionFor and the ranked listing work as if the
// analysis had run in-process.
//
// When no peer can take the job — every peer down, all attempts
// exhausted, or the fleet rejecting a payload its wire limits will not
// admit — the stage falls back to running the local pipeline, so a
// coordinator degrades to a plain single-node service rather than
// failing the batch. Only an analysis that actually ran on a peer and
// failed is surfaced as an error (it would fail identically anywhere).
type Stage struct {
	// Client routes work to the peer fleet.
	Client *Client
	// Reports, when non-nil, answers a repeat job from the finished report
	// of an earlier one without contacting a peer (see ReportMemo).
	Reports *ReportMemo

	fallbacks atomic.Int64

	// mu guards the lazily-created base context every remote submission
	// runs under; Close cancels it.
	mu     sync.Mutex
	ctx    context.Context
	cancel context.CancelFunc
}

// Name implements pipeline.Stage.
func (s *Stage) Name() string { return "remote" }

// Fallbacks reports how many jobs ran through the local fallback because
// no peer was available.
func (s *Stage) Fallbacks() int64 { return s.fallbacks.Load() }

// base returns the stage's cancelable base context, creating it on first
// use. Remote submissions (including their long-polls) run under it, so a
// coordinator shutting down is not held behind peer jobs for up to the
// client's JobTimeout.
func (s *Stage) base() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		s.ctx, s.cancel = context.WithCancel(context.Background())
	}
	return s.ctx
}

// Close aborts every in-flight remote submission and makes future Run
// calls fail with context.Canceled instead of contacting peers or
// starting local fallback work. It is idempotent.
func (s *Stage) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		s.ctx, s.cancel = context.WithCancel(context.Background())
	}
	s.cancel()
}

// ReportMemo memoizes finished analyses on a coordinator, keyed the way
// pipeline.ProfileCache is: a module bakes its input in, so its content
// hash and the options that can change the outcome identify the whole
// report. It holds the wire form without the spans, trace id and peer of the
// job that filled it — never suggestions resolved against a module, whose
// Region pointers would keep every module an entry came from alive.
type ReportMemo = lru.Cache[reportKey, *WireReport]

// NewReportMemo returns an empty memo holding at most max reports
// (0 = unbounded).
func NewReportMemo(max int) *ReportMemo { return lru.New[reportKey, *WireReport](max) }

type reportKey struct {
	mod       [32]byte
	profiler  profiler.Options
	threads   int
	bottomUp  bool
	maxInstrs int64
}

// Run implements pipeline.Stage. With Reports set, a job that may be cached
// (Opt.Cache non-nil, the rule the Profile stage follows, so inline
// submissions never are) is looked up there before peer health is asked, so
// a coordinator whose whole fleet is cooling down still answers repeats, and
// concurrent identical jobs share one hop. A hit contacts no peer and
// resolves the suggestions against this job's own module. Only a report a
// peer served is kept: a local fallback, a failed analysis or a closed stage
// leaves no entry, and the next identical job hops again.
func (s *Stage) Run(ctx *pipeline.Context) error {
	if s.Reports == nil || ctx.Opt.Cache == nil {
		_, err := s.hop(ctx)
		return err
	}
	o := &ctx.Opt
	var err error
	rep, hit := s.Reports.DoKeep(
		reportKey{ctx.Mod.ContentHash(), o.Profiler, o.Threads, o.BottomUpCUs, o.MaxInstrs},
		func() (*WireReport, bool) {
			var rep *WireReport
			rep, err = s.hop(ctx)
			return rep, rep != nil
		})
	if !hit {
		return err
	}
	ctx.Recorder().Annotate("cache_hit", "true")
	return fromWire(ctx, rep, true)
}

// hop analyzes the job on a peer, or through the local pipeline when no
// peer can take it. It returns the report to memoize — the peer's, less
// what belongs to this job alone — when a peer served the analysis, and nil
// when it did not.
func (s *Stage) hop(ctx *pipeline.Context) (*WireReport, error) {
	if !s.Client.Available() {
		// Every peer is in cooldown: skip the (potentially megabytes of)
		// module encoding whose bytes AnalyzeBytes would only throw away.
		s.fallbacks.Add(1)
		return nil, pipeline.New().Run(ctx)
	}
	enc, err := ir.Encode(ctx.Mod)
	if err != nil {
		return nil, fmt.Errorf("encode module: %w", err)
	}
	base := s.base()
	rep, err := s.Client.AnalyzeBytes(base,
		enc, Spec{Threads: ctx.Opt.Threads, BottomUp: ctx.Opt.BottomUpCUs,
			TraceID: ctx.Recorder().ID()})
	if err != nil {
		if base.Err() != nil {
			// The stage was closed (coordinator shutdown): don't start a
			// local analysis nobody is waiting for.
			return nil, base.Err()
		}
		var rerr *RemoteError
		if errors.As(err, &rerr) && !rerr.Rejected {
			// The analysis ran on the peer and failed; it would fail the
			// same way locally, so surface the error.
			return nil, err
		}
		// Transport-level failure everywhere, or the peer rejected the
		// submission (its wire limits can be stricter than what local
		// analysis handles): degrade to local analysis.
		s.fallbacks.Add(1)
		return nil, pipeline.New().Run(ctx)
	}
	ctx.RemotePeer = rep.Peer
	rec := ctx.Recorder()
	rec.Annotate("peer", rep.Peer)
	if len(rep.Spans) > 0 {
		// Splice the worker's spans under this hop's span, shifted by the
		// estimated per-hop clock offset so the coordinator's trace shows
		// the worker's queue/profile/discover time inline.
		skew := rec.Graft(rep.Peer, rep.Spans)
		rec.Annotate("clock_skew_ns", strconv.FormatInt(int64(skew), 10))
	}
	if err := fromWire(ctx, rep, rep.CacheHit); err != nil {
		return nil, err
	}
	memo := *rep
	memo.Spans, memo.TraceID, memo.Peer = nil, "", ""
	return &memo, nil
}

// fromWire fills the Context's products from a finished report, resolving
// suggestion locations against ctx.Mod.
func fromWire(ctx *pipeline.Context, rep *WireReport, cacheHit bool) (err error) {
	ctx.Instrs, ctx.DepCount, ctx.CUCount = rep.Instrs, rep.Deps, rep.CUs
	ctx.CacheHit = cacheHit
	ctx.Ranked, err = mapSuggestions(rep.Suggestions, ctx.Mod)
	return err
}

// maxSuggestions caps the suggestions in a WireReport; the full ranking is
// available to embedders through the pipeline API, not over HTTP.
const maxSuggestions = 100

// Summarize renders a successfully finished job in its wire form.
func Summarize(r *pipeline.JobResult) *WireReport {
	rep := r.Report
	out := &WireReport{
		Instrs:    rep.Instrs,
		Deps:      rep.NumDeps(),
		CUs:       rep.NumCUs(),
		CacheHit:  rep.CacheHit,
		ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
		QueueMS:   float64(r.QueueLat) / float64(time.Millisecond),
		Peer:      rep.RemotePeer,
	}
	if r.Trace != nil {
		out.TraceID = r.Trace.ID
		out.Spans = r.Trace.Spans
	}
	for _, s := range rep.Ranked {
		if s.Score <= 0 || len(out.Suggestions) >= maxSuggestions {
			break // Ranked is best-first; the tail is all zero-score
		}
		out.Suggestions = append(out.Suggestions, WireSuggestion{
			Rank:      len(out.Suggestions) + 1,
			Kind:      s.Kind.String(),
			Loc:       s.Loc.String(),
			Coverage:  s.Coverage,
			Speedup:   s.LocalSpeedup,
			Imbalance: s.Imbalance,
			Score:     s.Score,
			Notes:     s.Notes,
		})
	}
	return out
}

// mapSuggestions rebuilds ranked discovery suggestions from their wire
// form, resolving each location against the local module so downstream
// consumers (Report.SuggestionFor, region-keyed tooling) see real region
// pointers.
func mapSuggestions(ws []WireSuggestion, mod *ir.Module) ([]*discovery.Suggestion, error) {
	out := make([]*discovery.Suggestion, 0, len(ws))
	for _, w := range ws {
		kind, ok := discovery.ParseKind(w.Kind)
		if !ok {
			return nil, fmt.Errorf("remote: unknown suggestion kind %q", w.Kind)
		}
		loc, err := parseLoc(w.Loc)
		if err != nil {
			return nil, err
		}
		sg := &discovery.Suggestion{
			Kind:         kind,
			Loc:          loc,
			Coverage:     w.Coverage,
			LocalSpeedup: w.Speedup,
			Imbalance:    w.Imbalance,
			Score:        w.Score,
			Notes:        w.Notes,
		}
		// Loop suggestions anchor at the loop's start line, so the
		// innermost region containing the location is the loop itself. As
		// in discovery, a loop suggestion names its Region and a task
		// suggestion its host Func.
		if r := mod.RegionAt(loc); r != nil {
			if r.Kind == ir.RLoop && r.Start == loc {
				sg.Region = r
			} else {
				sg.Func = r.Func
			}
		}
		out = append(out, sg)
	}
	return out, nil
}

// parseLoc inverts ir.Loc.String ("file:line").
func parseLoc(s string) (ir.Loc, error) {
	f, l, ok := strings.Cut(s, ":")
	if !ok {
		return ir.Loc{}, fmt.Errorf("remote: malformed location %q", s)
	}
	file, err := strconv.ParseInt(f, 10, 32)
	if err != nil {
		return ir.Loc{}, fmt.Errorf("remote: malformed location %q", s)
	}
	line, err := strconv.ParseInt(l, 10, 32)
	if err != nil {
		return ir.Loc{}, fmt.Errorf("remote: malformed location %q", s)
	}
	return ir.Loc{File: int32(file), Line: int32(line)}, nil
}
