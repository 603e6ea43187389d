package server

import (
	"log"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discopop/internal/bytecode"
	"discopop/internal/metrics"
	"discopop/internal/pipeline"
)

// handleMetrics renders the Prometheus text exposition from fresh
// snapshots: the engine's fleet counters (safe to take while jobs are in
// flight), the profile cache's counters, and the shared arena pool's
// checkout counters. Nothing here keeps metric state of its own — a
// scrape is a pure read of the subsystems' accumulators.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	hits, misses := s.cache.Stats()

	w.Header().Set("Content-Type", metrics.ContentType)
	e := metrics.NewEncoder(w)

	// Job flow. A submission is accepted by the engine's queue taking it, so
	// accepted and submitted are one count under the two names scrapers read.
	e.Counter("dp_jobs_accepted_total", "Submissions acknowledged with 202.",
		metrics.V(float64(st.Submitted)))
	e.Counter("dp_jobs_submitted_total", "Jobs handed to the engine.",
		metrics.V(float64(st.Submitted)))
	e.Counter("dp_jobs_completed_total", "Jobs completed (including failures).",
		metrics.V(float64(st.Jobs)))
	e.Counter("dp_jobs_failed_total", "Jobs that finished with an error.",
		metrics.V(float64(st.Failed)))
	e.Gauge("dp_jobs_pending", "Accepted jobs waiting for an engine worker.",
		metrics.V(float64(st.Queued)))
	e.Counter("dp_jobs_rejected_total", "Submissions rejected before the engine, by reason.",
		labeledCounters(&s.rejected, "reason")...)
	e.Counter("dp_jobs_deduped_total",
		"Submissions answered from the idempotency index instead of re-running.",
		metrics.V(float64(s.idemReplays.Load())))
	e.Gauge("dp_jobs_inflight", "Jobs accepted but not yet completed.",
		metrics.V(float64(st.Submitted-st.Jobs)))
	e.Histogram("dp_queue_latency_seconds",
		"Per-job latency from acceptance to worker pickup.", latencyHistogram(st.QueueLat))

	// Analysis volume.
	e.Counter("dp_instrs_total", "IR statements executed under instrumentation.",
		metrics.V(float64(st.Instrs)))
	e.Counter("dp_deps_total", "Distinct dependences summed over completed jobs.",
		metrics.V(float64(st.Deps)))
	e.Counter("dp_accesses_total", "Profiled memory accesses.",
		metrics.V(float64(st.Accesses)))
	e.Counter("dp_store_bytes_total", "Summed access-status store footprint.",
		metrics.V(float64(st.StoreBytes)))
	e.Counter("dp_busy_seconds_total", "Summed per-job wall time across workers.",
		metrics.V(st.Busy.Seconds()))
	stages := make([]string, 0, len(st.StageTime))
	for name := range st.StageTime {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	samples := make([]metrics.Sample, len(stages))
	for i, name := range stages {
		samples[i] = metrics.LV(st.StageTime[name].Seconds(), metrics.L("stage", name))
	}
	e.Counter("dp_stage_seconds_total", "Summed wall time per pipeline stage.", samples...)

	// Profile cache.
	e.Counter("dp_profile_cache_hits_total", "Profile-stage cache hits.",
		metrics.V(float64(hits)))
	e.Counter("dp_profile_cache_misses_total", "Profile-stage cache misses.",
		metrics.V(float64(misses)))
	e.Counter("dp_profile_cache_evictions_total", "Entries dropped by the LRU bound.",
		metrics.V(float64(s.cache.Evictions())))
	e.Gauge("dp_profile_cache_entries", "Live profile-cache entries.",
		metrics.V(float64(s.cache.Len())))

	// Bytecode compile cache (process-wide; interp.New compiles through
	// bytecode.Shared unless a job opts into the tree walker).
	chits, cmisses, centries := bytecode.Shared.Stats()
	e.Counter("dp_compile_cache_hits_total", "Bytecode compile-cache hits.",
		metrics.V(float64(chits)))
	e.Counter("dp_compile_cache_misses_total", "Bytecode compile-cache misses (programs compiled).",
		metrics.V(float64(cmisses)))
	e.Counter("dp_compile_cache_entries_total", "Live compile-cache entries.",
		metrics.V(float64(centries)))
	e.Histogram("dp_compile_seconds",
		"Per-job bytecode compile time (compiling jobs only).", latencyHistogram(st.CompileLat))

	// Arena pool (process-wide).
	e.Counter("dp_pool_gets_total", "Arena spaces checked out of the shared pool.",
		metrics.V(float64(st.Pool.Gets)))
	e.Counter("dp_pool_puts_total", "Arena spaces returned to the shared pool.",
		metrics.V(float64(st.Pool.Puts)))
	e.Counter("dp_pool_fresh_total",
		"Pool checkouts that allocated a fresh arena (recycle misses).",
		metrics.V(float64(st.Pool.Fresh)))

	// Remote proxying (coordinator mode only): per-peer counters of the
	// fleet client, the local-fallback count and the report memo.
	if s.proxy != nil {
		peers := s.proxy.Client.Stats()
		reqs := make([]metrics.Sample, len(peers))
		fails := make([]metrics.Sample, len(peers))
		jobs := make([]metrics.Sample, len(peers))
		healthy := make([]metrics.Sample, len(peers))
		for i, p := range peers {
			l := metrics.L("peer", p.URL)
			reqs[i] = metrics.LV(float64(p.Requests), l)
			fails[i] = metrics.LV(float64(p.Failures), l)
			jobs[i] = metrics.LV(float64(p.Jobs), l)
			h := 0.0
			if p.Healthy {
				h = 1
			}
			healthy[i] = metrics.LV(h, l)
		}
		e.Counter("dp_peer_requests_total", "Analysis submissions attempted per peer.", reqs...)
		e.Counter("dp_peer_failures_total", "Transport failures per peer.", fails...)
		e.Counter("dp_peer_jobs_total", "Analyses completed per peer.", jobs...)
		e.Gauge("dp_peer_healthy", "1 while the peer is outside its failure cooldown.", healthy...)
		e.Counter("dp_remote_fallbacks_total",
			"Jobs analyzed locally because no peer was available.",
			metrics.V(float64(s.proxy.Fallbacks())))
		rhits, rmisses, revictions, rentries := s.proxy.Reports.Stats()
		e.Counter("dp_remote_report_cache_hits_total",
			"Jobs answered from the coordinator's finished-report memo, no peer contacted.",
			metrics.V(float64(rhits)))
		e.Counter("dp_remote_report_cache_misses_total", "Report-memo lookups that ran the job.",
			metrics.V(float64(rmisses)))
		e.Counter("dp_remote_report_cache_evictions_total", "Reports dropped by the LRU bound.",
			metrics.V(float64(revictions)))
		e.Gauge("dp_remote_report_cache_entries", "Live report-memo entries.",
			metrics.V(float64(rentries)))
	}

	// Durability: the job journal's own accounting, so operators can watch
	// append/sync volume and spot replay truncation after a crash.
	if s.journal != nil {
		js := s.journal.Stats()
		e.Counter("dp_journal_appends_total", "Records appended to the job journal.",
			metrics.V(float64(js.Appends)))
		e.Counter("dp_journal_bytes_total", "Bytes appended to the job journal.",
			metrics.V(float64(js.Bytes)))
		e.Counter("dp_journal_syncs_total", "Batched fsyncs of the job journal.",
			metrics.V(float64(js.Syncs)))
		e.Gauge("dp_journal_replayed_records", "Records recovered at boot from the journal.",
			metrics.V(float64(js.Replayed)))
		e.Gauge("dp_journal_truncated_bytes", "Torn-tail bytes discarded at boot.",
			metrics.V(float64(js.Truncated)))
		e.Counter("dp_journal_append_errors_total",
			"Job transitions that failed to reach the journal (durability degraded).",
			metrics.V(float64(s.journalAppendErrs.Load())))
		e.Counter("dp_journal_compactions_total",
			"Snapshot+truncate rotations of the job journal.",
			metrics.V(float64(js.Compactions)))
		e.Gauge("dp_journal_live_records",
			"Records in the current log generation (what the next boot replays).",
			metrics.V(float64(js.LiveRecords)))
		e.Gauge("dp_journal_size_bytes", "Current journal file size.",
			metrics.V(float64(js.SizeBytes)))
		e.Gauge("dp_journal_spill_files",
			"Live spill files holding results too large for one record.",
			metrics.V(float64(js.SpillFiles)))
		e.Gauge("dp_journal_spill_bytes", "Summed size of the live spill files.",
			metrics.V(float64(js.SpillBytes)))
	}

	// Service.
	e.Gauge("dp_uptime_seconds", "Seconds since the service started.",
		metrics.V(time.Since(s.start).Seconds()))
	e.Counter("dp_http_requests_total", "HTTP requests by endpoint.",
		labeledCounters(&s.httpReqs, "endpoint")...)

	// Go runtime, straight off the runtime's own accumulators — enough to
	// spot goroutine leaks, heap growth, and GC pressure without attaching
	// a profiler. ReadMemStats is a brief stop-the-world, which a scrape
	// cadence (seconds) amortizes to nothing.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Gauge("dp_go_goroutines", "Live goroutines.",
		metrics.V(float64(runtime.NumGoroutine())))
	e.Gauge("dp_go_heap_alloc_bytes", "Bytes of live heap objects.",
		metrics.V(float64(ms.HeapAlloc)))
	e.Counter("dp_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		metrics.V(float64(ms.PauseTotalNs)/1e9))
	e.Gauge("dp_build_info", "Build metadata carried in labels; the value is always 1.",
		metrics.LV(1, metrics.L("goversion", runtime.Version())))

	if err := e.Err(); err != nil {
		// Headers are long gone; all we can do is log the malformed scrape.
		log.Printf("metrics: %v", err)
	}
}

// labeledCounters snapshots a sync.Map of name -> *atomic.Int64 into
// label-sorted samples.
func labeledCounters(m *sync.Map, label string) []metrics.Sample {
	var names []string
	m.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	samples := make([]metrics.Sample, 0, len(names))
	for _, name := range names {
		c, _ := m.Load(name)
		samples = append(samples,
			metrics.LV(float64(c.(*atomic.Int64).Load()), metrics.L(label, name)))
	}
	return samples
}

// latencyHistogram converts the engine's fixed-bucket LatencyHist into the
// encoder's per-bucket form, bounds in seconds.
func latencyHistogram(h pipeline.LatencyHist) metrics.Histogram {
	bounds := h.BucketBounds()
	out := metrics.Histogram{
		UpperBounds: make([]float64, len(bounds)),
		Counts:      make([]int64, len(h.Buckets)),
		Sum:         h.Sum.Seconds(),
	}
	for i, b := range bounds {
		out.UpperBounds[i] = b.Seconds()
	}
	copy(out.Counts, h.Buckets[:])
	return out
}
