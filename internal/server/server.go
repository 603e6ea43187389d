// Package server wraps a persistent analysis engine behind an HTTP API,
// turning the one-shot CLI pipeline into a long-lived service: clients
// submit workloads (bundled, at any scale, or inline synthetic modules),
// poll asynchronous job results, enumerate the workload registry, and
// scrape Prometheus metrics while jobs are in flight.
//
// The service owns one pipeline.Engine (bounded worker pool, whose job
// queue is the service's submission queue) and one pipeline.ReportMemo (a
// repeat of a job, by registry name or serialized, runs no stage), and
// shares the process-wide arena pool — so every observability counter the
// batch engine accumulates (fleet stats, memo hits and evictions,
// queue-latency histogram, pool checkout counters) is reachable on /metrics
// at any time instead of only after a batch completes.
//
// API surface:
//
//	POST /v1/analyze                     submit a job; 202 with an id (async)
//	GET  /v1/jobs/{id}                   job status and, when finished, the result
//	GET  /v1/jobs/{id}/trace             Chrome trace-event JSON (?format=text for a tree)
//	GET  /v1/jobs                        recent job records
//	GET  /v1/workloads                   the bundled workload registry
//	GET  /v1/workloads/{name}/profile    gzipped pprof profile of execution effort
//	GET  /v1/debug/recent                span summaries of the last finished jobs
//	GET  /metrics                        Prometheus text exposition
//	GET  /healthz                        liveness ("ok", or 503 while draining)
//
// Shutdown is a drain: Drain stops new submissions (503), lets queued and
// running jobs finish, and returns when the last result is recorded.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discopop/internal/ir"
	"discopop/internal/journal"
	"discopop/internal/obs"
	"discopop/internal/pipeline"
	"discopop/internal/profiler"
	"discopop/internal/remote"
	"discopop/internal/workloads"
)

// Config sizes the service. The zero value is serviceable: one engine
// worker per CPU, the default report-memo bound, a 64-deep submission
// queue, 16-thread ranking, and 1024 retained job records.
type Config struct {
	// Workers bounds the engine's worker pool (0 = one per CPU).
	Workers int
	// CacheEntries caps the report memo (0 = DefaultCacheEntries,
	// negative = unbounded).
	CacheEntries int
	// QueueDepth is how many accepted submissions may wait for an engine
	// worker before the service rejects with 503 (0 = 64).
	QueueDepth int
	// Threads is the default thread count for local-speedup ranking
	// (0 = 16); per-request "threads" overrides it.
	Threads int
	// MaxRecords bounds the finished-job records retained for GET
	// /v1/jobs/{id} (0 = 1024). Oldest finished records are evicted first.
	MaxRecords int
	// Peers lists worker base URLs (e.g. "http://10.0.0.7:8080"). When
	// non-empty the node becomes a coordinator: every analysis is encoded
	// and shipped to a peer through the remote stage (with failover and
	// local fallback) instead of running in-process; a repeat of a cached
	// one is answered from the report memo without a hop.
	Peers []string
	// Remote tunes the coordinator's peer client (zero value = defaults).
	// Ignored without Peers.
	Remote remote.ClientOptions
	// SubmissionInstrs is the execution budget for inline and serialized
	// module submissions (0 = maxSubmissionInstrs, negative = unbounded).
	SubmissionInstrs int64
	// Tokens maps bearer tokens to client identities. Non-empty enables
	// authentication on every /v1/* endpoint (401 without a listed token);
	// /healthz and /metrics stay open. Empty runs the service open, with
	// every request acting as the anonymous client.
	Tokens map[string]string
	// Quotas applies per-client admission control: submission rate,
	// in-flight, instruction-budget, and module-footprint limits. The
	// zero value disables all of them.
	Quotas Quotas
	// JournalPath enables the crash-safe job journal: every job transition
	// is appended there and replayed on the next boot, so a restarted node
	// still answers for pre-restart jobs. Empty keeps records in memory
	// only.
	JournalPath string
	// JournalMaxBytes and JournalMaxRecords are the compaction thresholds:
	// once the log outgrows either, the live record store is snapshotted
	// into a fresh log (checkpoint + snapshot, atomic rename) so boot
	// replay stays O(live records). 0 means the defaults (64 MiB / 8192
	// records); negative disables that trigger.
	JournalMaxBytes   int64
	JournalMaxRecords int64
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = pipeline.DefaultCacheEntries
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded, in lru terms
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Threads <= 0 {
		c.Threads = 16
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 1024
	}
	if c.SubmissionInstrs == 0 {
		c.SubmissionInstrs = maxSubmissionInstrs
	} else if c.SubmissionInstrs < 0 {
		c.SubmissionInstrs = 0 // unbounded, in interp terms
	}
	if c.JournalMaxBytes == 0 {
		c.JournalMaxBytes = defaultJournalMaxBytes
	} else if c.JournalMaxBytes < 0 {
		c.JournalMaxBytes = 0 // no byte trigger, in journal.Options terms
	}
	if c.JournalMaxRecords == 0 {
		c.JournalMaxRecords = defaultJournalMaxRecords
	} else if c.JournalMaxRecords < 0 {
		c.JournalMaxRecords = 0
	}
	return c
}

// Default journal compaction thresholds: 64 MiB or 8192 records, whichever
// trips first. 8192 records is 8 store caps' worth of job transitions, so a
// compaction reclaims most of the log while staying rare under steady load.
const (
	defaultJournalMaxBytes   = 64 << 20
	defaultJournalMaxRecords = 8192
)

// Server is the long-lived analysis service. It implements http.Handler.
type Server struct {
	cfg   Config
	eng   *pipeline.Engine
	mux   *http.ServeMux
	start time.Time

	// baseOpt is the per-job option template: engine defaults plus the
	// report memo. Each submission copies it and fills Threads and budget.
	baseOpt pipeline.Options

	// submitMu makes "not draining, enqueued, accepted record journaled" one
	// step, so Drain cannot close the engine between a handler's check and
	// its TrySubmit, and no job reaches a worker without an accepted record
	// on its way.
	submitMu sync.Mutex
	draining atomic.Bool
	done     chan struct{} // closed when the last result is recorded

	jobs jobStore

	// proxy is the remote stage routing analyses to peer workers; nil for
	// a plain single-node service.
	proxy *remote.Stage

	// limits is the per-client admission controller; nil when Config.Quotas
	// is zero. journal is the durable job log; nil without JournalPath.
	limits  *limiter
	journal *journal.Journal

	// journalAppendErrs counts transitions that failed to reach the journal
	// (disk full, yanked volume): each one is a job whose post-restart
	// replay may be wrong, so the count is surfaced on /metrics and flips
	// /healthz to degraded.
	journalAppendErrs atomic.Int64

	// compactMu serializes compaction attempts so a burst of finishes does
	// not stack redundant snapshot rotations behind one another.
	compactMu sync.Mutex

	// idemReplays counts submissions answered from the idempotency index
	// instead of running (the dp_jobs_deduped_total metric).
	idemReplays atomic.Int64

	httpReqs sync.Map // endpoint label -> *atomic.Int64
	rejected sync.Map // rejection reason -> *atomic.Int64
}

// New starts the service: engine workers and the result collector begin
// running immediately. With a journal configured, the
// previous incarnation's job log is replayed first — finished jobs come
// back with their results and jobs in flight at the crash are settled as
// failed (interrupted) — before the service accepts traffic.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opt := pipeline.Options{
		BatchWorkers: cfg.Workers,
		Threads:      cfg.Threads,
		Reports:      pipeline.NewReportMemo(cfg.CacheEntries),
	}
	s := &Server{
		cfg:     cfg,
		baseOpt: opt,
		start:   time.Now(),
		done:    make(chan struct{}),
	}
	stages := pipeline.New()
	if len(cfg.Peers) > 0 {
		// Coordinator mode: the engine's only stage ships each module to a
		// peer worker; the full local pipeline remains the stage's
		// fallback when the whole fleet is unreachable.
		s.proxy = &remote.Stage{Client: remote.NewClient(cfg.Peers, cfg.Remote)}
		stages = &pipeline.Pipeline{Stages: []pipeline.Stage{s.proxy}}
	}
	s.eng = pipeline.NewEngineWith(stages, opt, cfg.QueueDepth)
	s.jobs.init(cfg.MaxRecords)
	s.limits = newLimiter(cfg.Quotas)
	if cfg.JournalPath != "" {
		jnl, recs, err := journal.OpenWith(cfg.JournalPath, journal.Options{
			MaxBytes:   cfg.JournalMaxBytes,
			MaxRecords: cfg.JournalMaxRecords,
		})
		if err != nil {
			s.eng.Close()
			return nil, fmt.Errorf("server: open journal: %w", err)
		}
		s.journal = jnl
		// Results too large for one record were spilled to side files at
		// append time; load them back so restore sees the full record. A
		// missing or corrupt spill degrades that one job (it replays
		// resultless), not the boot.
		for i := range recs {
			if recs[i].ResultRef == "" || len(recs[i].Result) > 0 {
				continue
			}
			data, err := jnl.ReadSpill(recs[i].ResultRef)
			if err != nil {
				log.Printf("server: journal spill %s (job %s): %v",
					recs[i].ResultRef, recs[i].ID, err)
				continue
			}
			recs[i].Result = data
		}
		interrupted := s.jobs.restore(recs)
		// Settle the interruptions durably too, so a second restart replays
		// them as failed instead of re-deriving (and re-timestamping) them.
		now := time.Now()
		for _, id := range interrupted {
			s.journalAppend(journal.Record{
				Op: journal.OpFinished, ID: id, Time: now,
				State: jobFailed, Error: errInterrupted,
			})
		}
		if len(recs) > 0 {
			log.Printf("server: journal %s replayed %d records (%d interrupted)",
				cfg.JournalPath, len(recs), len(interrupted))
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.count("analyze", s.auth(s.handleAnalyze)))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.count("job", s.auth(s.handleJob)))
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.count("trace", s.auth(s.handleJobTrace)))
	s.mux.HandleFunc("GET /v1/jobs", s.count("jobs", s.auth(s.handleJobs)))
	s.mux.HandleFunc("GET /v1/workloads", s.count("workloads", s.auth(s.handleWorkloads)))
	s.mux.HandleFunc("GET /v1/workloads/{name}/profile", s.count("profile", s.auth(s.handleWorkloadProfile)))
	s.mux.HandleFunc("GET /v1/debug/recent", s.count("recent", s.auth(s.handleRecent)))
	s.mux.HandleFunc("GET /metrics", s.count("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.count("healthz", s.handleHealthz))
	go s.collectLoop()
	return s, nil
}

// journalAppend records one transition; with no journal configured it is a
// no-op. Append failures (disk full, yanked volume) degrade durability,
// not availability: the job still runs, but the loss is counted
// (dp_journal_append_errors_total) and flips /healthz to degraded —
// log-only reporting here once let a successful job silently replay as
// failed (interrupted) after a restart.
func (s *Server) journalAppend(rec journal.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.journalAppendErrs.Add(1)
		log.Printf("server: journal append (op=%s id=%s): %v", rec.Op, rec.ID, err)
	}
}

// maybeCompact rotates the journal once it outgrows its thresholds:
// the live record store becomes a checkpoint + snapshot in a fresh log,
// so the next boot replays O(live records) instead of the full history.
// Called from collectLoop after each finished append — the only moment
// the log grows past a threshold for good.
func (s *Server) maybeCompact() {
	if s.journal == nil || !s.journal.NeedsCompaction() {
		return
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if !s.journal.NeedsCompaction() { // re-check: a racing finish compacted
		return
	}
	before := s.journal.Stats()
	if err := s.journal.Compact(s.jobs.exportRecords); err != nil {
		log.Printf("server: journal compaction: %v", err)
		return
	}
	after := s.journal.Stats()
	log.Printf("server: journal compacted: %d records / %d bytes -> %d records / %d bytes",
		before.LiveRecords, before.SizeBytes, after.LiveRecords, after.SizeBytes)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops accepting submissions, lets every queued and in-flight job
// finish, and returns once the last result is recorded (or ctx expires).
// When ctx expires on a coordinator, in-flight remote submissions are
// canceled so the abandoned jobs stop long-polling peers in the
// background. It is idempotent; the HTTP listener should be shut down
// first (or concurrently) so clients see connection refusals rather than
// 503s.
func (s *Server) Drain(ctx context.Context) error {
	s.submitMu.Lock()
	s.draining.Store(true)
	s.eng.Close()
	s.submitMu.Unlock()
	select {
	case <-s.done:
		if s.journal != nil {
			return s.journal.Close()
		}
		return nil
	case <-ctx.Done():
		if s.proxy != nil {
			s.proxy.Close()
		}
		if s.journal != nil {
			// Flush what we have; the unfinished jobs replay as interrupted.
			s.journal.Close()
		}
		return fmt.Errorf("server: drain interrupted with jobs still in flight: %w", ctx.Err())
	}
}

func (s *Server) collectLoop() {
	for r := range s.eng.Results() {
		rec := s.jobs.finish(r)
		if rec == nil {
			continue // record evicted while running; nothing to settle
		}
		var instrs int64
		if rec.Result != nil {
			instrs = rec.Result.Instrs
		}
		s.limits.finish(rec.Client, instrs)
		s.journalAppend(finishedRecord(rec))
		s.maybeCompact()
	}
	close(s.done)
}

// count wraps a handler with a per-endpoint request counter (the
// dp_http_requests_total metric).
func (s *Server) count(label string, h http.HandlerFunc) http.HandlerFunc {
	c := &atomic.Int64{}
	s.httpReqs.Store(label, c)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Add(1)
		h(w, r)
	}
}

// analyzeRequest is the POST /v1/analyze body. Exactly one of Workload,
// Inline, and Module must be set.
type analyzeRequest struct {
	// Workload names a bundled workload, optionally with a scale suffix
	// ("CG" or "CG@4"; the suffix wins over Scale).
	Workload string `json:"workload,omitempty"`
	// Scale is the workload scale factor (default 1).
	Scale int `json:"scale,omitempty"`
	// Threads overrides the service default for local-speedup ranking.
	Threads int `json:"threads,omitempty"`
	// BottomUp selects bottom-up CU construction.
	BottomUp bool `json:"bottomup,omitempty"`
	// Inline submits a synthetic module assembled from kernel patterns
	// instead of a bundled workload.
	Inline *InlineSpec `json:"inline,omitempty"`
	// Module submits a full serialized IR module: the base64 encoding of
	// the internal/remote wire format. The service decodes it under
	// strict limits (structure validation plus an op/memory footprint
	// cap, the module analogue of the workload-scale cap) and runs it
	// through the full pipeline.
	Module string `json:"module,omitempty"`
}

// reject counts one rejected submission under its reason label (the
// dp_jobs_rejected_total metric).
func (s *Server) reject(reason string) {
	c, _ := s.rejected.LoadOrStore(reason, &atomic.Int64{})
	c.(*atomic.Int64).Add(1)
}

// Rejection reason labels.
const (
	rejectDraining  = "draining"
	rejectBody      = "body"
	rejectSpec      = "spec"
	rejectDecode    = "decode"
	rejectQueueFull = "queue_full"
	rejectAuth      = "auth"
	rejectRate      = "ratelimit"
	rejectQuota     = "quota"
)

// maxIdemKeyLen bounds the Idempotency-Key header: the key is stored per
// live record and replayed through the journal, so it must not become an
// amplification channel.
const maxIdemKeyLen = 128

// maxTraceIDLen bounds the X-DP-Trace header for the same reason: the id
// is echoed into every span set and journaled result.
const maxTraceIDLen = 128

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	client := clientFrom(r.Context())
	if s.draining.Load() {
		s.reject(rejectDraining)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// Admission runs before the body is read: an over-limit client does
	// not get to make the node parse megabyte payloads for free.
	if wait, reason, ok := s.limits.admit(client); !ok {
		s.reject(reason)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
		writeError(w, http.StatusTooManyRequests,
			"client %q over %s limit; retry later", client, reason)
		return
	}
	// The admitted in-flight slot is held until the job settles
	// (limiter.finish in collectLoop); every earlier exit returns it here.
	keepSlot := false
	defer func() {
		if !keepSlot {
			s.limits.release(client)
		}
	}()
	idemKey := strings.TrimSpace(r.Header.Get("Idempotency-Key"))
	if len(idemKey) > maxIdemKeyLen {
		s.reject(rejectSpec)
		writeError(w, http.StatusBadRequest,
			"Idempotency-Key longer than %d bytes", maxIdemKeyLen)
		return
	}
	traceID := strings.TrimSpace(r.Header.Get("X-DP-Trace"))
	if len(traceID) > maxTraceIDLen {
		s.reject(rejectSpec)
		writeError(w, http.StatusBadRequest,
			"X-DP-Trace longer than %d bytes", maxTraceIDLen)
		return
	}
	var req analyzeRequest
	// The body cap must cover a module at the codec's byte limit after
	// base64 expansion (4/3) plus JSON framing, or the advertised decode
	// limit is unreachable over the wire.
	maxBody := int64(ir.DefaultLimits().MaxBytes)*4/3 + 64<<10
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reject(rejectBody)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !s.limits.admitModuleBytes(len(req.Module)) {
		s.reject(rejectQuota)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"module payload %d bytes over the per-submission quota of %d",
			len(req.Module), s.cfg.Quotas.MaxModuleBytes)
		return
	}
	job, rec, reason, err := s.buildJob(&req)
	if err != nil {
		s.reject(reason)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec.Client = client
	rec.IdemKey = idemKey
	// A coordinator's X-DP-Trace id groups this node's spans under the
	// caller's trace; local submissions trace under their own job id.
	job.TraceID = traceID
	if existing := s.jobs.add(rec); existing != nil {
		// A retry of a job we already hold: answer with the original record
		// instead of running the analysis twice. Coordinator failover leans
		// on this — a worker that accepted the first attempt dedupes the
		// second.
		s.idemReplays.Add(1)
		view := s.jobs.snapshot(existing)
		w.Header().Set("Idempotency-Replay", "true")
		writeAccepted(w, view.ID, view.State)
		return
	}
	s.submitMu.Lock()
	if s.draining.Load() {
		s.submitMu.Unlock()
		s.jobs.drop(rec.ID)
		s.reject(rejectDraining)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if !s.eng.TrySubmit(job) {
		s.submitMu.Unlock()
		s.jobs.drop(rec.ID)
		s.reject(rejectQueueFull)
		writeError(w, http.StatusServiceUnavailable,
			"submission queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	// Journal inside the enqueue critical section so an accepted record
	// exists for every job the engine will ever run, and rejected
	// submissions never leave dangling accepted records behind.
	s.journalAppend(acceptedRecord(rec))
	s.submitMu.Unlock()
	keepSlot = true
	writeAccepted(w, rec.ID, jobQueued)
}

// writeAccepted answers a submission with 202 and where to find its job.
func writeAccepted(w http.ResponseWriter, id, state string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{
		"id": id, "state": state, "url": "/v1/jobs/" + id,
	})
}

// buildJob resolves a request into an engine job plus its tracking
// record. On failure the reason label classifies the rejection for the
// dp_jobs_rejected_total counter.
func (s *Server) buildJob(req *analyzeRequest) (pipeline.Job, *jobRecord, string, error) {
	opt := s.baseOpt
	if req.Threads > 0 {
		opt.Threads = req.Threads
	}
	opt.BottomUpCUs = req.BottomUp

	rec := &jobRecord{State: jobQueued, Submitted: time.Now(), doneCh: make(chan struct{})}
	kinds := 0
	for _, set := range []bool{req.Inline != nil, req.Workload != "", req.Module != ""} {
		if set {
			kinds++
		}
	}
	if kinds > 1 {
		return pipeline.Job{}, nil, rejectSpec,
			fmt.Errorf("workload, inline, and module are mutually exclusive")
	}
	switch {
	case req.Inline != nil:
		mod, name, err := buildInline(req.Inline)
		if err != nil {
			return pipeline.Job{}, nil, rejectSpec, err
		}
		// Inline kernels are generated per request and rarely repeat:
		// memoizing them would only evict modules that do, so every inline
		// submission runs.
		opt.Reports = nil
		opt.MaxInstrs = s.cfg.SubmissionInstrs
		rec.Workload = "inline:" + name
		rec.ID = s.jobs.nextID()
		return pipeline.Job{Name: rec.ID, Mod: mod, Opt: &opt}, rec, "", nil
	case req.Module != "":
		raw, err := base64.StdEncoding.DecodeString(req.Module)
		if err != nil {
			return pipeline.Job{}, nil, rejectDecode,
				fmt.Errorf("module is not valid base64: %v", err)
		}
		mod, err := ir.Decode(raw)
		if err != nil {
			return pipeline.Job{}, nil, rejectDecode, err
		}
		opt.MaxInstrs = s.cfg.SubmissionInstrs
		rec.Workload = "module:" + mod.Name
		rec.ID = s.jobs.nextID()
		return pipeline.Job{Name: rec.ID, Mod: mod, Opt: &opt}, rec, "", nil
	case req.Workload != "":
		name, scale, err := parseWorkloadSpec(req.Workload, req.Scale)
		if err != nil {
			return pipeline.Job{}, nil, rejectSpec, err
		}
		prog, err := workloads.Build(name, scale)
		if err != nil {
			return pipeline.Job{}, nil, rejectSpec, err
		}
		rec.Workload = name
		rec.Scale = scale
		rec.ID = s.jobs.nextID()
		return pipeline.Job{Name: rec.ID, Mod: prog.M, Opt: &opt}, rec, "", nil
	}
	return pipeline.Job{}, nil, rejectSpec,
		fmt.Errorf("request needs a workload name, an inline module, or a serialized module")
}

// maxWorkloadScale caps submitted scale factors: workload sizes grow
// roughly linearly with scale, so an uncapped request could allocate an
// arbitrarily large arena and hold a worker for hours (the inline path has
// the same guard via its per-kernel N bound).
const maxWorkloadScale = 64

// maxSubmissionInstrs is the execution budget for inline and serialized
// module submissions. The decode limits bound only memory and structure,
// not work: a few-hundred-byte module can still hold an effectively
// infinite loop, so arbitrary client programs get an instruction budget
// (generous — an order of magnitude above the largest capped workload)
// where registry workloads, bounded by maxWorkloadScale, run unbudgeted.
const maxSubmissionInstrs = 64 << 20

// parseWorkloadSpec splits "name@scale"; an explicit suffix wins over the
// request's scale field. A scale of 0 means the default (1); malformed
// suffixes, negative scales, and scales beyond maxWorkloadScale are
// rejected.
func parseWorkloadSpec(spec string, scale int) (string, int, error) {
	name := spec
	for i := 0; i < len(spec); i++ {
		if spec[i] == '@' {
			name = spec[:i]
			n, err := strconv.Atoi(spec[i+1:])
			if err != nil {
				return "", 0, fmt.Errorf("bad scale suffix in %q", spec)
			}
			scale = n
			break
		}
	}
	if scale == 0 {
		scale = 1
	}
	if scale < 1 || scale > maxWorkloadScale {
		return "", 0, fmt.Errorf("scale %d out of range [1, %d]", scale, maxWorkloadScale)
	}
	return name, scale, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	// ?wait=2s blocks until the job finishes or the timeout elapses —
	// submit-then-wait without a poll loop.
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait duration %q", waitSpec)
			return
		}
		const maxWait = 30 * time.Second
		if d > maxWait {
			d = maxWait
		}
		select {
		case <-rec.doneCh:
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.jobs.snapshot(rec))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"workloads": workloads.List(r.URL.Query().Get("suite")),
		"suites":    workloads.Suites(),
	})
}

// handleJobTrace renders a finished job's span tree: Chrome trace-event
// JSON by default (loadable in Perfetto / about:tracing), an indented
// text tree with ?format=text.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	view := s.jobs.snapshot(rec)
	if view.State == jobQueued {
		writeError(w, http.StatusConflict, "job %q not finished", id)
		return
	}
	if view.Result == nil || len(view.Result.Spans) == 0 {
		writeError(w, http.StatusNotFound, "job %q has no recorded trace", id)
		return
	}
	tid := view.Result.TraceID
	if tid == "" {
		tid = id
	}
	tr := &obs.Trace{ID: tid, Spans: view.Result.Spans}
	switch r.URL.Query().Get("format") {
	case "", "chrome", "json":
		w.Header().Set("Content-Type", "application/json")
		tr.WriteChrome(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr.WriteText(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown trace format %q", r.URL.Query().Get("format"))
	}
}

// handleWorkloadProfile serves a bundled workload's per-line execution
// effort as a gzipped pprof profile (sample type "instructions"), directly
// loadable with `go tool pprof`. Every request runs the workload under the
// profiler synchronously, with the options a registry job uses — workload
// cost is bounded by maxWorkloadScale, the same cap the analyze path
// relies on.
func (s *Server) handleWorkloadProfile(w http.ResponseWriter, r *http.Request) {
	scale := 1
	if spec := r.URL.Query().Get("scale"); spec != "" {
		n, err := strconv.Atoi(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad scale %q", spec)
			return
		}
		scale = n
	}
	name, scale, err := parseWorkloadSpec(r.PathValue("name"), scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prog, err := workloads.Build(name, scale)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	run, err := profiler.Execute(prog.M, s.baseOpt.Profiler, s.baseOpt.MaxInstrs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "profile: %v", err)
		return
	}
	data, err := obs.EncodeLineProfile("instructions", "count",
		obs.ModuleLineSamples(prog.M, run.Result.Lines), time.Now().UnixNano())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode profile: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("%s@%d.pb.gz", name, scale)))
	w.Write(data)
}

// handleRecent serves the bounded ring of finished-job span summaries;
// it answers for jobs whose full records have already been evicted.
func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"recent": s.jobs.recentList()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A journal that is dropping appends degrades durability, not
	// liveness: the service stays 200 (it is still serving correctly) but
	// the body names the degradation so probes and humans can see that a
	// restart would replay incomplete state.
	if s.journal != nil {
		if err := s.journal.Err(); err != nil {
			fmt.Fprintf(w, "degraded: journal: %v\n", err)
			return
		}
		if n := s.journalAppendErrs.Load(); n > 0 {
			fmt.Fprintf(w, "degraded: journal: %d append failures\n", n)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
