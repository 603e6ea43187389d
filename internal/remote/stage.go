package remote

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"discopop/internal/ir"
	"discopop/internal/pipeline"
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
// exhausted, a module the codec will not encode, or the fleet rejecting a
// payload its wire limits will not admit — the stage falls back to
// running the local pipeline, so a coordinator degrades to a plain
// single-node service rather than failing the batch. Only an analysis
// that actually ran on a peer and failed is surfaced as an error (it
// would fail identically anywhere).
type Stage struct {
	// Client routes work to the peer fleet.
	Client *Client

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

// Run implements pipeline.Stage.
func (s *Stage) Run(ctx *pipeline.Context) error {
	if !s.Client.Available() {
		// Every peer is in cooldown: skip the (potentially megabytes of)
		// module encoding whose bytes AnalyzeBytes would only throw away.
		return s.fallback(ctx)
	}
	enc, err := ir.Encode(ctx.Mod)
	if err != nil {
		// Past one of the codec's caps: every peer would reject the bytes,
		// so skip the hop and run the job here.
		return s.fallback(ctx)
	}
	base := s.base()
	rep, err := s.Client.AnalyzeBytes(base,
		enc, Spec{Threads: ctx.Opt.Threads, BottomUp: ctx.Opt.BottomUpCUs,
			TraceID: ctx.Recorder().ID()})
	if err != nil {
		if base.Err() != nil {
			// The stage was closed (coordinator shutdown): don't start a
			// local analysis nobody is waiting for.
			return base.Err()
		}
		var rerr *RemoteError
		if errors.As(err, &rerr) && !rerr.Rejected {
			// The analysis ran on the peer and failed; it would fail the
			// same way locally, so surface the error.
			return err
		}
		// Transport-level failure everywhere, or the peer rejected the
		// submission (its wire limits can be stricter than what local
		// analysis handles): degrade to local analysis.
		return s.fallback(ctx)
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
	return ctx.FromWire(rep)
}

// fallback analyzes the job through the local pipeline, flagging the
// Context so that a report memo keeps nothing of it.
func (s *Stage) fallback(ctx *pipeline.Context) error {
	s.fallbacks.Add(1)
	ctx.LocalFallback = true
	return pipeline.New().Run(ctx)
}
