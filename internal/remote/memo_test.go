package remote_test

// The coordinator's report memo against real workers: a repeat of a cached
// job is answered without a hop, concurrent repeats share one hop, and only
// a report a peer served is ever kept.

import (
	"encoding/base64"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"discopop/internal/ir"
	"discopop/internal/metrics"
	"discopop/internal/remote"
	"discopop/internal/server"
	"discopop/internal/workloads"
)

// memoStats reads a coordinator's report-memo family, failing when it is
// not exposed.
func memoStats(t *testing.T, base string) (hits, misses, evictions, entries float64) {
	t.Helper()
	sc := scrape(t, base)
	get := func(name string) float64 {
		v, ok := sc.Value(name)
		if !ok {
			t.Fatalf("%s missing from the coordinator's /metrics", name)
		}
		return v
	}
	return get("dp_remote_report_cache_hits_total"), get("dp_remote_report_cache_misses_total"),
		get("dp_remote_report_cache_evictions_total"), get("dp_remote_report_cache_entries")
}

// resultOf returns a job view's result object.
func resultOf(t *testing.T, view map[string]any) map[string]any {
	t.Helper()
	result, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("job view has no result: %v", view)
	}
	return result
}

// wantHop checks that a job was served by the peer at url.
func wantHop(t *testing.T, view map[string]any, url string) {
	t.Helper()
	if p := resultOf(t, view)["peer"]; p != url {
		t.Fatalf("job %v served by %v, want the worker %s", view["id"], p, url)
	}
}

// wantMemoHit checks that a job was answered from the memo: a cache hit, no
// peer, and a remote span annotated as a hit with nothing grafted under it.
func wantMemoHit(t *testing.T, view map[string]any) {
	t.Helper()
	result := resultOf(t, view)
	if result["cache_hit"] != true {
		t.Fatalf("job %v: cache_hit %v, want a memo hit", view["id"], result["cache_hit"])
	}
	if p, ok := result["peer"]; ok {
		t.Fatalf("job %v: a memo hit names peer %v", view["id"], p)
	}
	remoteSpans := 0
	for _, s := range spansOf(t, view) {
		if s.Node != "" {
			t.Fatalf("job %v: a memo hit carries worker span %q", view["id"], s.Name)
		}
		if s.Name != "remote" {
			continue
		}
		remoteSpans++
		if s.Attrs["cache_hit"] != "true" || s.Attrs["peer"] != "" || s.Attrs["clock_skew_ns"] != "" {
			t.Fatalf("job %v: remote span attrs %v, want cache_hit=true and no peer or clock skew", view["id"], s.Attrs)
		}
	}
	if remoteSpans != 1 {
		t.Fatalf("job %v: %d remote spans, want 1", view["id"], remoteSpans)
	}
}

// TestReportMemoAnswersRepeats: the same serialized module, and separately
// the same registry workload, submitted twice through a coordinator. The
// second answer comes from the memo with the first one's suggestions, and
// neither the worker nor the coordinator's peer counters move.
func TestReportMemoAnswersRepeats(t *testing.T) {
	enc, err := ir.Encode(workloads.MustBuild("histogram", 1).M)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]map[string]any{
		"module":   {"module": base64.StdEncoding.EncodeToString(enc)},
		"workload": {"workload": "histogram"},
	} {
		t.Run(name, func(t *testing.T) {
			worker := bootNode(t, server.Config{Workers: 1})
			coord := bootNode(t, server.Config{Workers: 1, Peers: []string{worker.ts.URL}})
			peer := metrics.L("peer", worker.ts.URL)

			first := submitOn(t, coord.ts.URL, body)
			wantHop(t, first, worker.ts.URL)
			accepted := scrapeCounter(t, worker.ts.URL, "dp_jobs_accepted_total")
			requests := scrapeCounter(t, coord.ts.URL, "dp_peer_requests_total", peer)
			jobs := scrapeCounter(t, coord.ts.URL, "dp_peer_jobs_total", peer)

			second := submitOn(t, coord.ts.URL, body)
			wantMemoHit(t, second)
			a, _ := json.Marshal(resultOf(t, first)["suggestions"])
			b, _ := json.Marshal(resultOf(t, second)["suggestions"])
			if string(a) != string(b) {
				t.Fatalf("memoized suggestions differ:\nhop:  %s\nmemo: %s", a, b)
			}
			if got := scrapeCounter(t, worker.ts.URL, "dp_jobs_accepted_total"); got != accepted {
				t.Errorf("worker accepted %v jobs after the repeat, %v before", got, accepted)
			}
			if got := scrapeCounter(t, coord.ts.URL, "dp_peer_requests_total", peer); got != requests {
				t.Errorf("peer requests %v after the repeat, %v before", got, requests)
			}
			if got := scrapeCounter(t, coord.ts.URL, "dp_peer_jobs_total", peer); got != jobs {
				t.Errorf("dp_peer_jobs_total %v after the repeat, %v before", got, jobs)
			}
			if hits, misses, ev, n := memoStats(t, coord.ts.URL); hits != 1 || misses != 1 || ev != 0 || n != 1 {
				t.Errorf("memo hits=%v misses=%v evictions=%v entries=%v, want 1 1 0 1", hits, misses, ev, n)
			}
		})
	}
}

// TestReportMemoCoalescesConcurrentRepeats: eight identical submissions
// in flight on a coordinator at once cost exactly one hop.
func TestReportMemoCoalescesConcurrentRepeats(t *testing.T) {
	worker := bootNode(t, server.Config{Workers: 1})
	coord := bootNode(t, server.Config{Workers: 8, Peers: []string{worker.ts.URL}})
	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = postJob(t, coord.ts.URL, map[string]any{"workload": "histogram"})
	}
	hops := 0
	for _, id := range ids {
		view := waitView(t, coord.ts.URL, id)
		if view["state"] != "done" {
			t.Fatalf("job %s: %v", id, view)
		}
		if _, ok := resultOf(t, view)["peer"]; ok {
			hops++
		} else {
			wantMemoHit(t, view)
		}
	}
	if got := scrapeCounter(t, worker.ts.URL, "dp_jobs_accepted_total"); hops != 1 || got != 1 {
		t.Fatalf("%d jobs hopped and the worker accepted %v, want 1 and 1", hops, got)
	}
	if hits, misses, _, _ := memoStats(t, coord.ts.URL); hits != n-1 || misses != 1 {
		t.Fatalf("memo hits=%v misses=%v, want %d and 1", hits, misses, n-1)
	}
}

// TestReportMemoSkipsInline: inline submissions are never cached, so the
// same inline spec twice hops twice and never consults the memo.
func TestReportMemoSkipsInline(t *testing.T) {
	worker := bootNode(t, server.Config{Workers: 1})
	coord := bootNode(t, server.Config{Workers: 1, Peers: []string{worker.ts.URL}})
	for i := 0; i < 2; i++ {
		wantHop(t, submitOn(t, coord.ts.URL, inlineProbe), worker.ts.URL)
	}
	if got := scrapeCounter(t, worker.ts.URL, "dp_jobs_accepted_total"); got != 2 {
		t.Fatalf("worker accepted %v inline jobs, want 2", got)
	}
	if hits, misses, _, n := memoStats(t, coord.ts.URL); hits != 0 || misses != 0 || n != 0 {
		t.Fatalf("memo hits=%v misses=%v entries=%v for inline jobs, want none", hits, misses, n)
	}
}

// TestReportMemoAnswersWhileFleetCoolsDown: with its only peer in cooldown
// a coordinator still answers a repeat from the memo instead of running it
// locally.
func TestReportMemoAnswersWhileFleetCoolsDown(t *testing.T) {
	var down atomic.Bool
	worker := bootGated(t, server.Config{Workers: 1}, &down)
	coord := bootNode(t, server.Config{Workers: 1, Peers: []string{worker.ts.URL},
		Remote: remote.ClientOptions{FailThreshold: 1, Cooldown: time.Hour}})

	wantHop(t, analyzeOn(t, coord.ts.URL, "histogram"), worker.ts.URL)
	down.Store(true)
	// A new module finds the worker failing: the peer goes into cooldown
	// and the job runs locally.
	if p, ok := resultOf(t, analyzeOn(t, coord.ts.URL, "matmul"))["peer"]; ok {
		t.Fatalf("job served by %v with the worker down", p)
	}
	if h := scrapeCounter(t, coord.ts.URL, "dp_peer_healthy", metrics.L("peer", worker.ts.URL)); h != 0 {
		t.Fatalf("dp_peer_healthy = %v, want the peer in cooldown", h)
	}
	wantMemoHit(t, analyzeOn(t, coord.ts.URL, "histogram"))
	if fb := scrapeCounter(t, coord.ts.URL, "dp_remote_fallbacks_total"); fb != 1 {
		t.Fatalf("dp_remote_fallbacks_total = %v, want 1 (the new module only)", fb)
	}
}

// TestReportMemoKeepsNoFallback: a report the coordinator produced by local
// fallback is not memoized, so once the worker is back the same job hops,
// and only the hopped report answers the next repeat.
func TestReportMemoKeepsNoFallback(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	worker := bootGated(t, server.Config{Workers: 1}, &down)
	coord := bootNode(t, server.Config{Workers: 1, Peers: []string{worker.ts.URL},
		Remote: remote.ClientOptions{FailThreshold: 1, Cooldown: time.Millisecond}})

	if p, ok := resultOf(t, analyzeOn(t, coord.ts.URL, "histogram"))["peer"]; ok {
		t.Fatalf("job served by %v with the worker down", p)
	}
	if fb := scrapeCounter(t, coord.ts.URL, "dp_remote_fallbacks_total"); fb != 1 {
		t.Fatalf("dp_remote_fallbacks_total = %v, want 1", fb)
	}
	down.Store(false)
	time.Sleep(10 * time.Millisecond) // past the cooldown
	wantHop(t, analyzeOn(t, coord.ts.URL, "histogram"), worker.ts.URL)
	wantMemoHit(t, analyzeOn(t, coord.ts.URL, "histogram"))
	if got := scrapeCounter(t, worker.ts.URL, "dp_jobs_accepted_total"); got != 1 {
		t.Fatalf("worker accepted %v jobs, want 1", got)
	}
	if hits, misses, _, n := memoStats(t, coord.ts.URL); hits != 1 || misses != 2 || n != 1 {
		t.Fatalf("memo hits=%v misses=%v entries=%v, want 1 2 1", hits, misses, n)
	}
}
