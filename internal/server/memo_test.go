package server

// The report memo on a single node: a repeat of a cached job runs no stage
// and says what a fresh analysis says, identical jobs in flight cost one
// analysis, and inline jobs are never memoized.

import (
	"encoding/json"
	"fmt"
	"testing"

	"discopop/internal/metrics"
	"discopop/internal/workloads"
)

// memoSpans counts a job's memo spans, failing on one not annotated as a hit.
func memoSpans(t *testing.T, v jobView) int {
	t.Helper()
	n := 0
	for _, s := range v.Result.Spans {
		if s.Name != "memo" {
			continue
		}
		if s.Attrs["cache_hit"] != "true" {
			t.Fatalf("job %s: memo span attrs %v, want cache_hit=true", v.ID, s.Attrs)
		}
		n++
	}
	return n
}

// wantMemoHit checks that a job was answered from the memo: a cache hit with
// one memo span and no stage span.
func wantMemoHit(t *testing.T, v jobView) {
	t.Helper()
	if v.State != jobDone || !v.Result.CacheHit {
		t.Fatalf("job %s (%s): state %s cache_hit %v, want a memo hit", v.ID, v.Workload, v.State, v.Result != nil && v.Result.CacheHit)
	}
	if n := memoSpans(t, v); n != 1 {
		t.Fatalf("job %s (%s): %d memo spans, want 1", v.ID, v.Workload, n)
	}
	for _, s := range v.Result.Spans {
		switch s.Name {
		case "profile", "build-pet", "build-cus", "discover", "rank":
			t.Fatalf("job %s (%s): a memo hit ran stage %s", v.ID, v.Workload, s.Name)
		}
	}
}

// wireOf renders a job's result without what belongs to the job rather than
// the analysis: cache flag, timings, trace id and spans.
func wireOf(t *testing.T, v jobView) string {
	t.Helper()
	r := *v.Result
	r.CacheHit, r.ElapsedMS, r.QueueMS, r.TraceID, r.Spans = false, 0, 0, "", nil
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReportMemoMatchesFreshAnalysis: every registry workload submitted
// twice to one node; the repeat is answered from the memo with the first
// answer's report, byte for byte. Under -short a quarter of the registry.
func TestReportMemoMatchesFreshAnalysis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	want := 0
	for i, name := range workloads.Names("") {
		if testing.Short() && i%4 != 0 {
			continue
		}
		body := fmt.Sprintf(`{"workload":%q,"scale":1}`, name)
		fresh := waitJob(t, ts.URL, postAnalyze(t, ts.URL, body))
		if fresh.State != jobDone {
			t.Fatalf("%s: %s (%s)", name, fresh.State, fresh.Error)
		}
		if fresh.Result.CacheHit || memoSpans(t, fresh) != 0 {
			t.Fatalf("%s: the first submission was answered from a cache", name)
		}
		repeat := waitJob(t, ts.URL, postAnalyze(t, ts.URL, body))
		wantMemoHit(t, repeat)
		if a, b := wireOf(t, fresh), wireOf(t, repeat); a != b {
			t.Errorf("%s: memoized report differs from the fresh one:\nfresh: %s\nmemo:  %s", name, a, b)
		}
		want++
	}
	if v := mustValue(t, scrape(t, ts.URL), "dp_report_cache_hits_total"); int(v) != want {
		t.Errorf("dp_report_cache_hits_total = %v, want %d", v, want)
	}
}

// TestReportMemoCoalescesOnSingleNode: eight identical submissions in
// flight on one node cost one analysis: one compile-cache lookup, one memo
// miss, seven hits.
func TestReportMemoCoalescesOnSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 8})
	// The compile cache is process-wide: count this test's lookups only.
	compileLookups := func(sc *metrics.Scrape) float64 {
		return mustValue(t, sc, "dp_compile_cache_hits_total") + mustValue(t, sc, "dp_compile_cache_misses_total")
	}
	before := compileLookups(scrape(t, ts.URL))
	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = postAnalyze(t, ts.URL, `{"workload":"histogram"}`)
	}
	fresh := 0
	for _, id := range ids {
		v := waitJob(t, ts.URL, id)
		if v.State != jobDone {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
		if memoSpans(t, v) == 0 {
			fresh++
		} else {
			wantMemoHit(t, v)
		}
	}
	sc := scrape(t, ts.URL)
	if lookups := compileLookups(sc) - before; fresh != 1 || lookups != 1 {
		t.Fatalf("%d jobs analyzed and %v compile lookups, want 1 and 1", fresh, lookups)
	}
	hits, misses := mustValue(t, sc, "dp_report_cache_hits_total"), mustValue(t, sc, "dp_report_cache_misses_total")
	if hits != n-1 || misses != 1 {
		t.Fatalf("memo hits=%v misses=%v, want %d and 1", hits, misses, n-1)
	}
}

// TestReportMemoSkipsInlineOnSingleNode: an inline spec submitted twice is
// analyzed twice and never consults the memo.
func TestReportMemoSkipsInlineOnSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const spec = `{"inline":{"name":"memo-probe","kernels":[{"pattern":"doall","n":256}]}}`
	for i := 0; i < 2; i++ {
		v := waitJob(t, ts.URL, postAnalyze(t, ts.URL, spec))
		if v.State != jobDone || v.Result.CacheHit || memoSpans(t, v) != 0 {
			t.Fatalf("inline job %d: state %s cache_hit %v, want a fresh analysis", i, v.State, v.Result != nil && v.Result.CacheHit)
		}
	}
	sc := scrape(t, ts.URL)
	for _, name := range []string{"dp_report_cache_hits_total", "dp_report_cache_misses_total", "dp_report_cache_entries"} {
		if v := mustValue(t, sc, name); v != 0 {
			t.Errorf("%s = %v after two inline jobs, want 0", name, v)
		}
	}
}
