package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json at the root of
// the repository lists the same names; bench_test.go keeps the two equal.
type metricDef struct {
	Name string
	Unit string
}

// Workload names, in the order an all-workload run executes them.
var workloadNames = []string{"solo_large", "solo_variants", "serve_mixed", "fleet_hop"}

// endToEnd is what a user of the system sees; every run without -trace
// reports all of them. failed_share is not here: the driver's contract
// carries it as the attempted/failed counts of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ns_per_access", "ns"},
	{"par_ns_per_access", "ns"},
	{"fresh_p50_ms", "ms"},
	{"repeat_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"truth_match_share", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's output, one group per package.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"bytecode.compile_ms", "ms"},
	{"bytecode.hash_us", "us"},
	{"bytecode.cache_hit_share", "ratio"},
	{"interp.untraced_ns_per_instr", "ns"},
	{"interp.delivery_ns_per_event", "ns"},
	{"interp.events_per_access", "ratio"},
	{"interp.slowdown_x", "ratio"},
	{"mem.pool_fresh_share", "ratio"},
	{"sig.perfect_getset_ns", "ns"},
	{"sig.signature_getset_ns", "ns"},
	{"sig.false_dep_share", "ratio"},
	{"profiler.new_us", "us"},
	{"profiler.consume_ns_per_access", "ns"},
	{"profiler.merge_ms", "ms"},
	{"profiler.store_mb", "MB"},
	{"profiler.deps", "count"},
	{"profiler.sig_ns_per_access", "ns"},
	{"profiler.sig_skip_ns_per_access", "ns"},
	{"profiler.skip_share", "ratio"},
	{"profiler.par_ns_per_access", "ns"},
	{"profiler.mt_ns_per_access", "ns"},
	{"profiler.depshards_merge_us", "us"},
	{"pet.consume_ns_per_event", "ns"},
	{"pet.tree_us", "us"},
	{"cu.build_us", "us"},
	{"cu.count", "count"},
	{"discovery.analyze_us", "us"},
	{"discovery.suggestions", "count"},
	{"rank.rank_us", "us"},
	{"pipeline.self_us", "us"},
	{"pipeline.cache_hit_share", "ratio"},
	{"pipeline.cache_evictions", "count"},
	{"pipeline.queue_p50_ms", "ms"},
	{"pipeline.stage_profile_p50_ms", "ms"},
	{"pipeline.stage_post_p50_us", "us"},
	{"remote.encode_us", "us"},
	{"remote.decode_us", "us"},
	{"remote.module_bytes", "count"},
	{"remote.hop_p50_ms", "ms"},
	{"remote.fallbacks", "count"},
	{"remote.peer_failures", "count"},
	{"journal.append_us", "us"},
	{"journal.sync_ms", "ms"},
	{"journal.replay_ms", "ms"},
	{"journal.appends_per_job", "ratio"},
	{"journal.syncs_per_job", "ratio"},
	{"journal.bytes_per_job", "count"},
	{"journal.compactions", "count"},
	{"server.submit_p50_ms", "ms"},
	{"server.wait_p50_ms", "ms"},
	{"server.request_bytes", "count"},
	{"server.response_bytes", "count"},
	{"server.rejected_share", "ratio"},
	{"server.gc_pause_ms", "ms"},
	{"obs.spans_per_job", "ratio"},
	{"obs.trace_fetch_ms", "ms"},
	{"metrics.scrape_ms", "ms"},
	{"bench.calib_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.alloc_bytes_per_access", "count"},
	{"bench.rounds", "count"},
	{"bench.samples", "count"},
}

// runResult is one run of one workload: the line the driver reads, plus
// what -out records for -compare.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Problems lists what made the run incorrect (capped).
	Problems []string `json:"problems,omitempty"`
}

// defsFor returns the metric set a run of the given mode must report.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// resultLine renders the single JSON object the driver reads as the last
// line of standard output. A metric the run did not produce is a bug in
// the benchmark, reported as an error rather than silently dropped.
func (r *runResult) resultLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defsFor(r.Trace) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("workload %s produced no value for %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printTable lists every metric of the run by name with its unit.
func (r *runResult) printTable() {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("\n== %s seed=%d %s: attempted=%d failed=%d failed_share=%.4f correct=%v\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	for _, d := range defsFor(r.Trace) {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
}

// problems collects failure descriptions without growing without bound.
type problems struct {
	list   []string
	failed int
}

func (p *problems) fail(format string, args ...any) {
	p.failed++
	if len(p.list) < 20 {
		p.list = append(p.list, fmt.Sprintf(format, args...))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
