package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"discopop/internal/ir"
	"discopop/internal/metrics"
	"discopop/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func postAnalyze(t *testing.T, base string, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/analyze %q: %d %s", body, resp.StatusCode, buf.String())
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("empty job id")
	}
	return out.ID
}

// waitJob polls GET /v1/jobs/{id}?wait=... until the job leaves the queued
// state.
func waitJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State != jobQueued {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still queued after 60s", id)
		}
	}
}

func scrape(t *testing.T, base string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	s, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	return s
}

func mustValue(t *testing.T, s *metrics.Scrape, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, ok := s.Value(name, labels...)
	if !ok {
		t.Fatalf("metric %s%v missing", name, labels)
	}
	return v
}

// TestEndToEnd is the service round trip: submit two workloads, poll to
// completion, resubmit one and observe the report memo serving it, submit
// it once more with other ranking options and observe a fresh analysis
// (the memo is the node's only table), and validate the /metrics
// exposition throughout.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	before := scrape(t, ts.URL)
	if v := mustValue(t, before, "dp_jobs_submitted_total"); v != 0 {
		t.Errorf("fresh server submitted=%v", v)
	}

	id1 := postAnalyze(t, ts.URL, `{"workload":"histogram"}`)
	id2 := postAnalyze(t, ts.URL, `{"workload":"EP","scale":1}`)
	v1 := waitJob(t, ts.URL, id1)
	v2 := waitJob(t, ts.URL, id2)
	for _, v := range []jobView{v1, v2} {
		if v.State != jobDone {
			t.Fatalf("job %s: state %s (%s)", v.ID, v.State, v.Error)
		}
		if v.Result == nil || v.Result.Instrs == 0 || v.Result.Deps == 0 {
			t.Fatalf("job %s: empty result %+v", v.ID, v.Result)
		}
		if v.Result.CacheHit {
			t.Errorf("job %s: first analysis claims a cache hit", v.ID)
		}
	}
	if len(v1.Result.Suggestions) == 0 {
		t.Error("histogram analysis returned no suggestions")
	}
	// The top histogram suggestions must carry real ranking metrics.
	top := v1.Result.Suggestions[0]
	if top.Kind == "" || top.Score <= 0 || top.Coverage <= 0 {
		t.Errorf("degenerate top suggestion %+v", top)
	}

	// Repeat submission: same workload@scale must be served from the
	// report memo.
	id3 := postAnalyze(t, ts.URL, `{"workload":"histogram","scale":1}`)
	v3 := waitJob(t, ts.URL, id3)
	if v3.State != jobDone {
		t.Fatalf("repeat job: %s (%s)", v3.State, v3.Error)
	}
	if !v3.Result.CacheHit {
		t.Error("repeat histogram@1 submission did not hit the report memo")
	}
	if v3.Result.Deps != v1.Result.Deps || v3.Result.Instrs != v1.Result.Instrs {
		t.Errorf("cached result diverged: deps %d vs %d, instrs %d vs %d",
			v3.Result.Deps, v1.Result.Deps, v3.Result.Instrs, v1.Result.Instrs)
	}
	if v := mustValue(t, scrape(t, ts.URL), "dp_report_cache_hits_total"); v != 1 {
		t.Errorf("report memo hits=%v after the repeat, want 1", v)
	}

	// Other ranking options: the memo misses (threads is part of its key)
	// and, with no profile cache behind it, the job profiles again — to the
	// first run's counts.
	v4 := waitJob(t, ts.URL, postAnalyze(t, ts.URL, `{"workload":"histogram","threads":4}`))
	if v4.State != jobDone {
		t.Fatalf("threads variant: %s (%s)", v4.State, v4.Error)
	}
	if v4.Result.CacheHit || v4.Result.Deps != v1.Result.Deps || v4.Result.Instrs != v1.Result.Instrs {
		t.Errorf("threads variant not a fresh analysis with v1's counts: %+v", v4.Result)
	}
	profiles := 0
	for _, sp := range v4.Result.Spans {
		if sp.Name == "profile" {
			profiles++
		}
	}
	if profiles != 1 {
		t.Errorf("threads variant: %d profile spans, want 1", profiles)
	}

	after := scrape(t, ts.URL)
	checkMonotone(t, before, after,
		"dp_jobs_accepted_total", "dp_jobs_submitted_total", "dp_jobs_completed_total",
		"dp_instrs_total", "dp_accesses_total", "dp_busy_seconds_total",
		"dp_pool_gets_total", "dp_pool_puts_total", "dp_pool_fresh_total",
		"dp_http_requests_total")
	if v := mustValue(t, after, "dp_jobs_completed_total"); v != 4 {
		t.Errorf("completed=%v, want 4", v)
	}
	if v := mustValue(t, after, "dp_jobs_accepted_total"); v != 4 {
		t.Errorf("accepted=%v, want 4", v)
	}
	if v := mustValue(t, after, "dp_jobs_inflight"); v != 0 {
		t.Errorf("inflight=%v after all jobs done", v)
	}
	if v := mustValue(t, after, "dp_jobs_failed_total"); v != 0 {
		t.Errorf("failed=%v", v)
	}
	// The report memo is the node's only table; the compile cache below it
	// is process-wide.
	for name := range after.Types {
		if strings.Contains(name, "_cache_") &&
			!strings.HasPrefix(name, "dp_report_cache_") && !strings.HasPrefix(name, "dp_compile_cache_") {
			t.Errorf("/metrics exports %s: a node keeps no table but the report memo", name)
		}
	}
	if v := mustValue(t, after, "dp_report_cache_misses_total"); v != 3 {
		t.Errorf("report memo misses=%v, want 3", v)
	}
	if v := mustValue(t, after, "dp_pool_gets_total"); v < 3 {
		t.Errorf("pool gets=%v, want >=3 (three profiles)", v)
	}
	if after.Types["dp_queue_latency_seconds"] != "histogram" {
		t.Errorf("queue latency TYPE = %q", after.Types["dp_queue_latency_seconds"])
	}
	checkHistogramCumulative(t, after, "dp_queue_latency_seconds", 4)
	if v := mustValue(t, after, "dp_stage_seconds_total", metrics.L("stage", "profile")); v <= 0 {
		t.Errorf("profile stage seconds = %v", v)
	}
}

// checkMonotone asserts counters never decreased between two scrapes.
// Families with labels are summed.
func checkMonotone(t *testing.T, before, after *metrics.Scrape, names ...string) {
	t.Helper()
	sum := func(s *metrics.Scrape, name string) float64 {
		var total float64
		for _, p := range s.Points {
			if p.Name == name {
				total += p.Value
			}
		}
		return total
	}
	for _, name := range names {
		b, a := sum(before, name), sum(after, name)
		if a < b {
			t.Errorf("counter %s went backwards: %v -> %v", name, b, a)
		}
	}
}

// checkHistogramCumulative validates the le-series: non-decreasing across
// ascending bounds, ending at +Inf == _count.
func checkHistogramCumulative(t *testing.T, s *metrics.Scrape, name string, wantCount float64) {
	t.Helper()
	type bucket struct {
		le  float64
		val float64
	}
	var buckets []bucket
	var inf float64
	for _, p := range s.Points {
		if p.Name != name+"_bucket" {
			continue
		}
		le := p.Labels["le"]
		if le == "+Inf" {
			inf = p.Value
			continue
		}
		var b bucket
		if _, err := fmt.Sscanf(le, "%g", &b.le); err != nil {
			t.Fatalf("unparsable le=%q", le)
		}
		b.val = p.Value
		buckets = append(buckets, b)
	}
	if len(buckets) == 0 {
		t.Fatalf("no %s_bucket series", name)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].le <= buckets[i-1].le {
			t.Errorf("%s bounds not ascending at %v", name, buckets[i].le)
		}
		if buckets[i].val < buckets[i-1].val {
			t.Errorf("%s not cumulative: le=%v has %v < %v", name,
				buckets[i].le, buckets[i].val, buckets[i-1].val)
		}
	}
	if inf < buckets[len(buckets)-1].val {
		t.Errorf("%s +Inf bucket %v below last finite bucket", name, inf)
	}
	count := mustValue(t, s, name+"_count")
	if inf != count {
		t.Errorf("%s +Inf bucket %v != _count %v", name, inf, count)
	}
	if count != wantCount {
		t.Errorf("%s _count = %v, want %v", name, count, wantCount)
	}
}

// TestMetricsConcurrentWithJobs scrapes /metrics in a loop while jobs run —
// the acceptance criterion's live-scrape case, meaningful under -race.
func TestMetricsConcurrentWithJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastSubmitted float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := scrape(t, ts.URL)
			v := mustValue(t, s, "dp_jobs_submitted_total")
			if v < lastSubmitted {
				t.Errorf("submitted went backwards: %v -> %v", lastSubmitted, v)
				return
			}
			lastSubmitted = v
			checkHistogramCumulative2(t, s, "dp_queue_latency_seconds")
		}
	}()
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, postAnalyze(t, ts.URL, `{"workload":"prefix-sum"}`))
	}
	for _, id := range ids {
		if v := waitJob(t, ts.URL, id); v.State != jobDone {
			t.Errorf("%s: %s (%s)", id, v.State, v.Error)
		}
	}
	close(stop)
	wg.Wait()
}

// checkHistogramCumulative2 is the mid-flight variant: cumulativity only,
// no expected count.
func checkHistogramCumulative2(t *testing.T, s *metrics.Scrape, name string) {
	t.Helper()
	var prev float64
	var n int
	for _, p := range s.Points {
		if p.Name != name+"_bucket" {
			continue
		}
		if p.Value < prev {
			t.Errorf("%s bucket regression: %v after %v", name, p.Value, prev)
		}
		prev = p.Value
		n++
	}
	if n == 0 {
		t.Errorf("no %s buckets", name)
	}
}

func TestInlineModuleAnalysis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := postAnalyze(t, ts.URL,
		`{"inline":{"name":"probe","kernels":[{"pattern":"doall","n":512},{"pattern":"recurrence","n":512}]}}`)
	v := waitJob(t, ts.URL, id)
	if v.State != jobDone {
		t.Fatalf("inline job: %s (%s)", v.State, v.Error)
	}
	if v.Workload != "inline:probe" {
		t.Errorf("workload label %q", v.Workload)
	}
	if v.Result.CacheHit {
		t.Error("inline module must never be cache-served")
	}
	// The doall kernel must rank above the recurrence: one parallel, one
	// inherently sequential.
	if len(v.Result.Suggestions) == 0 {
		t.Fatal("inline analysis returned no suggestions")
	}
	if k := v.Result.Suggestions[0].Kind; !strings.Contains(k, "DOALL") {
		t.Errorf("top inline suggestion kind %q, want a DOALL", k)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{}`, http.StatusBadRequest},
		{`{"workload":"no-such-workload"}`, http.StatusBadRequest},
		{`{"workload":"CG","inline":{"kernels":[{"pattern":"doall"}]}}`, http.StatusBadRequest},
		{`{"workload":"CG@x"}`, http.StatusBadRequest},
		{`{"workload":"CG","scale":100000000}`, http.StatusBadRequest},
		{`{"workload":"CG@-1"}`, http.StatusBadRequest},
		{`{"inline":{"kernels":[]}}`, http.StatusBadRequest},
		{`{"inline":{"kernels":[{"pattern":"nope"}]}}`, http.StatusBadRequest},
		{`{"inline":{"kernels":[{"pattern":"doall","n":1}]}}`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestAnalyzeBodyCapCoversCodecLimit pins the transport cap to the codec
// limit: a module submission well over 1MB must reach the module decoder
// (and be rejected there for its content) rather than dying at
// MaxBytesReader — otherwise the codec's advertised MaxBytes is
// unreachable over the wire and coordinators silently degrade to local
// analysis for larger modules.
func TestAnalyzeBodyCapCoversCodecLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	big := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xAB}, 2<<20))
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"module":"`+big+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2MB garbage module: status %d, want 400", resp.StatusCode)
	}
	if strings.Contains(buf.String(), "request body too large") {
		t.Fatalf("2MB module rejected by the body cap, not the decoder: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "bad magic") {
		t.Fatalf("want a codec rejection, got: %s", buf.String())
	}
}

func TestWorkloadSpecParsing(t *testing.T) {
	for _, tc := range []struct {
		spec      string
		scale     int
		wantName  string
		wantScale int
		wantErr   bool
	}{
		{"CG", 0, "CG", 1, false},
		{"CG", 3, "CG", 3, false},
		{"CG@4", 2, "CG", 4, false}, // suffix wins
		{"CG@0", 0, "CG", 1, false}, // 0 = default
		{"CG@x", 0, "", 0, true},
		{"CG@4abc", 0, "", 0, true}, // trailing garbage is not "4"
		{"CG@-3", 0, "", 0, true},   // negative scales are rejected, not coerced
		{"CG@65", 0, "", 0, true},   // beyond maxWorkloadScale
		{"CG", -1, "", 0, true},
		{"CG", maxWorkloadScale + 1, "", 0, true},
	} {
		name, scale, err := parseWorkloadSpec(tc.spec, tc.scale)
		if tc.wantErr != (err != nil) {
			t.Errorf("%q: err=%v", tc.spec, err)
			continue
		}
		if !tc.wantErr && (name != tc.wantName || scale != tc.wantScale) {
			t.Errorf("%q -> (%q, %d), want (%q, %d)", tc.spec, name, scale, tc.wantName, tc.wantScale)
		}
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Workloads []struct {
			Name  string `json:"name"`
			Suite string `json:"suite"`
		} `json:"workloads"`
		Suites []string `json:"suites"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Workloads) < 20 || len(out.Suites) < 4 {
		t.Errorf("registry listing too small: %d workloads, %d suites",
			len(out.Workloads), len(out.Suites))
	}
	for _, w := range out.Workloads {
		if w.Name == "" || w.Suite == "" {
			t.Errorf("incomplete entry %+v", w)
		}
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Jobs submitted before the drain must complete and stay queryable.
	id := postAnalyze(t, ts.URL, `{"workload":"matmul"}`)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil { // idempotent
		t.Fatalf("second drain: %v", err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"workload":"CG"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("analyze while drained: %d, want 503", resp.StatusCode)
	}
	v := waitJob(t, ts.URL, id)
	if v.State != jobDone {
		t.Errorf("pre-drain job: %s (%s)", v.State, v.Error)
	}
}

func TestJobRecordEviction(t *testing.T) {
	var js jobStore
	js.init(2)
	mk := func(state string) *jobRecord {
		rec := &jobRecord{ID: js.nextID(), State: state, doneCh: make(chan struct{})}
		js.add(rec)
		return rec
	}
	a := mk(jobDone)
	b := mk(jobQueued)
	c := mk(jobDone)
	if _, ok := js.get(a.ID); ok {
		t.Error("oldest finished record not evicted")
	}
	for _, rec := range []*jobRecord{b, c} {
		if _, ok := js.get(rec.ID); !ok {
			t.Errorf("record %s evicted wrongly", rec.ID)
		}
	}
	// Queued records survive even over cap.
	d := mk(jobQueued)
	e := mk(jobQueued)
	for _, rec := range []*jobRecord{b, d, e} {
		if _, ok := js.get(rec.ID); !ok {
			t.Errorf("queued record %s evicted", rec.ID)
		}
	}
}

// runawayModule serializes a structurally tiny module that loops effectively
// forever, in main or — main only spawns and joins — on a spawned thread.
func runawayModule(t *testing.T, onWorker bool) string {
	t.Helper()
	b := ir.NewBuilder("runaway")
	out := b.Global("out", ir.F64)
	loop := func(fb *ir.FuncBuilder) {
		fb.While(ir.Lt(ir.CI(0), ir.CI(1)), func() {
			fb.Set(out, ir.Add(ir.V(out), ir.CI(1)))
		})
		fb.Return(nil)
	}
	fb := b.Func("main")
	if onWorker {
		w := b.Func("w")
		loop(w)
		fb.Spawn(w.Done())
		fb.Sync()
		fb.Return(nil)
	} else {
		loop(fb)
	}
	enc, err := ir.Encode(b.Build(fb.Done()))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"module":%q}`, base64.StdEncoding.EncodeToString(enc))
}

// TestRunawayModuleBudget submits a structurally tiny serialized module
// whose main loops effectively forever: the decode limits cannot reject
// it (memory and node counts are minimal), so the submission-side
// instruction budget must fail the job instead of pinning an engine
// worker until the interpreter's 2^40-iteration backstop.
func TestRunawayModuleBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SubmissionInstrs: 50_000})
	v := waitJob(t, ts.URL, postAnalyze(t, ts.URL, runawayModule(t, false)))
	if v.State != jobFailed {
		t.Fatalf("runaway module ended %q, want failed", v.State)
	}
	if !strings.Contains(v.Error, "instruction budget") {
		t.Fatalf("failure %q is not the budget abort", v.Error)
	}
}

// TestRunawayWorkerThreadBudget moves the endless loop into a spawned thread,
// where the budget fires on that thread's goroutine: the job must still end
// as one failed job — not as a dead process — and the server must go on
// serving.
func TestRunawayWorkerThreadBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SubmissionInstrs: 50_000})
	v := waitJob(t, ts.URL, postAnalyze(t, ts.URL, runawayModule(t, true)))
	if v.State != jobFailed || !strings.Contains(v.Error, "instruction budget") {
		t.Fatalf("runaway worker thread ended %q (%q), want failed by the instruction budget", v.State, v.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the failed job: %d, want 200", resp.StatusCode)
	}
	if next := waitJob(t, ts.URL, postAnalyze(t, ts.URL, `{"workload":"histogram"}`)); next.State != jobDone {
		t.Errorf("next submission ended %q: %s", next.State, next.Error)
	}
}

// TestSerializedModuleSubmission submits a full serialized IR module and
// checks it analyzes identically to the same workload submitted by name,
// that resubmission hits the content-addressed profile cache, and that
// malformed payloads are rejected with a categorized counter.
func TestSerializedModuleSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ir.Encode(prog.M)
	if err != nil {
		t.Fatal(err)
	}
	modB64 := base64.StdEncoding.EncodeToString(enc)

	byName := waitJob(t, ts.URL, postAnalyze(t, ts.URL, `{"workload":"histogram"}`))
	asModule := waitJob(t, ts.URL, postAnalyze(t, ts.URL,
		fmt.Sprintf(`{"module":%q}`, modB64)))
	if asModule.State != jobDone {
		t.Fatalf("module job state %q: %s", asModule.State, asModule.Error)
	}
	if asModule.Workload != "module:histogram" {
		t.Fatalf("module job labeled %q", asModule.Workload)
	}
	// The decoded module must produce the same analysis as the bundled
	// build: identical instruction count, dependences, CUs, and ranking.
	a, b := byName.Result, asModule.Result
	if a.Instrs != b.Instrs || a.Deps != b.Deps || a.CUs != b.CUs {
		t.Fatalf("module analysis differs: %+v vs %+v", a, b)
	}
	av, _ := json.Marshal(a.Suggestions)
	bv, _ := json.Marshal(b.Suggestions)
	if !bytes.Equal(av, bv) {
		t.Fatalf("module suggestions differ:\n%s\n%s", av, bv)
	}

	// Same content as the job by name, but budgeted where that one was not:
	// the two must not share a cache entry, or a budget-exhausted failure
	// of a client's copy would be served to the registry workload.
	if b.CacheHit {
		t.Fatal("budgeted module submission was served the unbudgeted workload's profile")
	}

	// Resubmitting the same module must hit the profile cache (the key is
	// the module's content hash, not a client-supplied name).
	again := waitJob(t, ts.URL, postAnalyze(t, ts.URL,
		fmt.Sprintf(`{"module":%q}`, modB64)))
	if again.State != jobDone || again.Result == nil || !again.Result.CacheHit {
		t.Fatalf("resubmitted module did not hit the cache: %+v", again)
	}

	// Rejections: bad base64, bad bytes, mutual exclusion, footprint.
	for _, body := range []string{
		`{"module":"!!!not-base64"}`,
		`{"module":"` + base64.StdEncoding.EncodeToString([]byte("garbage")) + `"}`,
		`{"module":"` + modB64 + `","workload":"CG"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// The rejected counter must have categorized them.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scrape.Value("dp_jobs_rejected_total", metrics.L("reason", "decode")); !ok || v < 2 {
		t.Fatalf("dp_jobs_rejected_total{reason=decode} = %v (ok=%v), want >= 2", v, ok)
	}
	if v, ok := scrape.Value("dp_jobs_rejected_total", metrics.L("reason", "spec")); !ok || v < 1 {
		t.Fatalf("dp_jobs_rejected_total{reason=spec} = %v (ok=%v), want >= 1", v, ok)
	}
	if scrape.Types["dp_jobs_rejected_total"] != "counter" {
		t.Fatalf("dp_jobs_rejected_total declared as %q", scrape.Types["dp_jobs_rejected_total"])
	}
}

// TestCompileCacheMetrics: the bytecode compile cache surfaces on
// /metrics, and a repeated inline submission — which bypasses the profile
// cache by design — is served by the compile cache instead: identical
// module content compiles once. Asserted as deltas because the compile
// cache is process-wide (bytecode.Shared) and other tests also compile.
var ccacheProbes int

func TestCompileCacheMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	before := scrape(t, ts.URL)
	mustValue(t, before, "dp_compile_cache_hits_total")
	mustValue(t, before, "dp_compile_cache_misses_total")
	mustValue(t, before, "dp_compile_cache_entries")
	if typ := before.Types["dp_compile_seconds"]; typ != "histogram" {
		t.Errorf("dp_compile_seconds TYPE = %q, want histogram", typ)
	}

	// Content unique to this test and to each -count iteration of it, so the
	// first submission is a compile miss no matter what ran before.
	ccacheProbes++
	spec := fmt.Sprintf(`{"inline":{"name":"ccache-probe","kernels":[{"pattern":"doall","n":%d},{"pattern":"reduction","n":512}]}}`,
		512+ccacheProbes)
	v1 := waitJob(t, ts.URL, postAnalyze(t, ts.URL, spec))
	if v1.State != jobDone {
		t.Fatalf("first inline job: %s (%s)", v1.State, v1.Error)
	}
	mid := scrape(t, ts.URL)
	if d := mustValue(t, mid, "dp_compile_cache_misses_total") -
		mustValue(t, before, "dp_compile_cache_misses_total"); d < 1 {
		t.Errorf("first inline submission raised compile misses by %v, want >= 1", d)
	}

	v2 := waitJob(t, ts.URL, postAnalyze(t, ts.URL, spec))
	if v2.State != jobDone {
		t.Fatalf("repeat inline job: %s (%s)", v2.State, v2.Error)
	}
	if v2.Result.CacheHit {
		t.Error("inline module must never be profile-cache-served")
	}
	after := scrape(t, ts.URL)
	if d := mustValue(t, after, "dp_compile_cache_hits_total") -
		mustValue(t, mid, "dp_compile_cache_hits_total"); d < 1 {
		t.Errorf("repeat inline submission raised compile hits by %v, want >= 1", d)
	}
	if d := mustValue(t, after, "dp_compile_cache_misses_total") -
		mustValue(t, mid, "dp_compile_cache_misses_total"); d != 0 {
		t.Errorf("repeat inline submission recompiled (%v new misses)", d)
	}
	if v := mustValue(t, after, "dp_compile_cache_entries"); v < 1 {
		t.Errorf("compile cache entries = %v, want >= 1", v)
	}
	// The identical content must yield the identical analysis.
	if v2.Result.Deps != v1.Result.Deps || v2.Result.Instrs != v1.Result.Instrs {
		t.Errorf("compile-cached run diverged: deps %d vs %d, instrs %d vs %d",
			v2.Result.Deps, v1.Result.Deps, v2.Result.Instrs, v1.Result.Instrs)
	}
}
