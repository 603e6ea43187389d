package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"discopop/internal/journal"
	"discopop/internal/metrics"
)

// analyzeWith submits one analysis with optional bearer token and
// idempotency key, returning the raw response and the decoded JSON body.
func analyzeWith(t *testing.T, base, body, token, idemKey string) (*http.Response, map[string]string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getWith(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAuth covers the bearer-token gate: every /v1 endpoint rejects
// missing and wrong tokens with 401 (counted under reason="auth"), valid
// tokens resolve to their client identity, and /healthz and /metrics stay
// open for probes and scrapers.
func TestAuth(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Tokens:  map[string]string{"tok-alice": "alice", "tok-bob": "bob"},
	})

	for _, url := range []string{
		ts.URL + "/v1/jobs", ts.URL + "/v1/workloads", ts.URL + "/v1/jobs/j000001",
	} {
		for _, token := range []string{"", "wrong-token"} {
			resp := getWith(t, url, token)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("GET %s token=%q: %d, want 401", url, token, resp.StatusCode)
			}
			if h := resp.Header.Get("WWW-Authenticate"); !strings.Contains(h, "Bearer") {
				t.Errorf("401 missing WWW-Authenticate challenge, got %q", h)
			}
		}
	}
	if resp, _ := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated analyze: %d, want 401", resp.StatusCode)
	}

	// Open endpoints need no token even with auth enabled.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp := getWith(t, ts.URL+path, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without token: %d, want 200", path, resp.StatusCode)
		}
	}

	// A valid token works end to end and the record carries its client.
	resp, out := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-alice", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authenticated analyze: %d", resp.StatusCode)
	}
	jr := getWith(t, ts.URL+"/v1/jobs/"+out["id"]+"?wait=30s", "tok-bob")
	var view jobView
	if err := json.NewDecoder(jr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if view.State != jobDone {
		t.Fatalf("job state %q: %s", view.State, view.Error)
	}
	if view.Client != "alice" {
		t.Fatalf("job client %q, want alice", view.Client)
	}

	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_jobs_rejected_total", metrics.L("reason", rejectAuth)); n < 7 {
		t.Fatalf("auth rejections = %v, want >= 7", n)
	}
}

// TestRateLimit429 exhausts a client's submission bucket and checks the
// over-limit answer: 429, a positive Retry-After, the ratelimit reason
// label, and recovery once the bucket refills.
func TestRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Quotas:  Quotas{SubmitRate: 20, SubmitBurst: 2},
	})

	accepted, limited := 0, 0
	var retryAfter string
	for i := 0; i < 6; i++ {
		resp, _ := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "", "")
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			limited++
			retryAfter = resp.Header.Get("Retry-After")
		default:
			t.Fatalf("submission %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if accepted < 2 || limited == 0 {
		t.Fatalf("accepted=%d limited=%d, want >=2 accepted and >0 limited", accepted, limited)
	}
	if n, err := strconv.Atoi(retryAfter); err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", retryAfter)
	}
	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_jobs_rejected_total", metrics.L("reason", rejectRate)); int(n) != limited {
		t.Fatalf("ratelimit rejections metric = %v, want %d", n, limited)
	}

	// The bucket refills at 20/s; within a second the client is welcome
	// again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "", "")
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered from the rate limit")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestProfileEndpointIsAdmitted: GET /v1/workloads/{name}/profile runs a
// profile synchronously, so it is admitted like a submission: refused over
// the submission rate and the instruction quota (which its own run debits),
// its slot returned on a bad request, and refused with 503 while draining.
func TestProfileEndpointIsAdmitted(t *testing.T) {
	get := func(base, query string) *http.Response {
		t.Helper()
		resp, err := http.Get(base + "/v1/workloads/histogram/profile" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	_, ts := newTestServer(t, Config{Workers: 1, Quotas: Quotas{SubmitRate: 0.001, SubmitBurst: 1}})
	if resp := get(ts.URL, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("first profile: %d, want 200", resp.StatusCode)
	}
	resp := get(ts.URL, "")
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); resp.StatusCode != http.StatusTooManyRequests || err != nil || ra < 1 {
		t.Fatalf("second profile: %d, Retry-After %q; want 429 and a positive Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := mustValue(t, scrape(t, ts.URL), "dp_jobs_rejected_total", metrics.L("reason", rejectRate)); n != 1 {
		t.Fatalf("ratelimit rejections = %v, want 1", n)
	}

	// One histogram run overdraws 10 s of 1 statement per second; a bad
	// request before it returns its in-flight slot.
	_, ts = newTestServer(t, Config{Workers: 1, Quotas: Quotas{InstrRate: 1, MaxInflight: 1}})
	for i, c := range []struct {
		query string
		want  int
	}{{"?scale=x", http.StatusBadRequest}, {"", http.StatusOK}, {"", http.StatusTooManyRequests}} {
		if resp := get(ts.URL, c.query); resp.StatusCode != c.want {
			t.Fatalf("profile %d%s: %d, want %d", i, c.query, resp.StatusCode, c.want)
		}
	}
	if n := mustValue(t, scrape(t, ts.URL), "dp_jobs_rejected_total", metrics.L("reason", rejectQuota)); n != 1 {
		t.Fatalf("quota rejections = %v, want 1", n)
	}

	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp := get(ts.URL, ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("profile while draining: %d, want 503", resp.StatusCode)
	}
}

// TestModuleFootprintQuota rejects serialized-module payloads over the
// per-submission byte quota with 429 under reason="quota", while a small
// module on the same config passes.
func TestModuleFootprintQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Quotas:  Quotas{MaxModuleBytes: 64},
	})

	big := strings.Repeat("A", 128)
	resp, _ := analyzeWith(t, ts.URL, fmt.Sprintf(`{"module":%q}`, big), "", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized module: %d, want 429", resp.StatusCode)
	}
	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_jobs_rejected_total", metrics.L("reason", rejectQuota)); n != 1 {
		t.Fatalf("quota rejections = %v, want 1", n)
	}
	// Non-module submissions are untouched by the footprint quota.
	if resp, _ := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("workload submission under module quota: %d", resp.StatusCode)
	}
}

// TestInstrQuotaDebt drives the post-paid instruction budget into debt and
// checks the client is then refused with reason="quota" until the budget
// refills.
func TestInstrQuotaDebt(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		// Tiny budget (10 s of 1 statement per second): one histogram run
		// (thousands of instrs) overdraws it.
		Quotas: Quotas{InstrRate: 1},
	})

	id := postAnalyze(t, ts.URL, `{"workload":"histogram"}`)
	if v := waitJob(t, ts.URL, id); v.State != jobDone {
		t.Fatalf("first job state %q: %s", v.State, v.Error)
	}
	// The first job's spend settles on completion; the next submission must
	// see the debt.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "", "")
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("quota 429 Retry-After = %q", resp.Header.Get("Retry-After"))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never hit the instruction quota")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestIdempotencyKey submits the same logical job twice under one key and
// checks the retry is answered from the original record (same ID, replay
// header, dedupe counter) while different keys and different clients still
// get fresh jobs.
func TestIdempotencyKey(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Tokens:  map[string]string{"tok-alice": "alice", "tok-bob": "bob"},
	})

	resp1, out1 := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-alice", "key-1")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %d", resp1.StatusCode)
	}
	resp2, out2 := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-alice", "key-1")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submission: %d", resp2.StatusCode)
	}
	if out2["id"] != out1["id"] {
		t.Fatalf("duplicate got job %s, want original %s", out2["id"], out1["id"])
	}
	if resp2.Header.Get("Idempotency-Replay") != "true" {
		t.Fatal("duplicate response missing Idempotency-Replay header")
	}

	// A different key, and the same key from another client, run fresh.
	_, out3 := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-alice", "key-2")
	if out3["id"] == out1["id"] {
		t.Fatal("different key deduped onto the original job")
	}
	_, out4 := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-bob", "key-1")
	if out4["id"] == out1["id"] {
		t.Fatal("another client's identical key deduped cross-tenant")
	}

	// Replaying after completion returns the settled record's state.
	waitAuthedDone(t, ts.URL, out1["id"], "tok-alice")
	resp5, out5 := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-alice", "key-1")
	if resp5.StatusCode != http.StatusAccepted || out5["id"] != out1["id"] {
		t.Fatalf("post-completion replay: %d id=%s", resp5.StatusCode, out5["id"])
	}
	if out5["state"] != jobDone {
		t.Fatalf("post-completion replay state %q, want done", out5["state"])
	}

	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_jobs_deduped_total"); n != 2 {
		t.Fatalf("dp_jobs_deduped_total = %v, want 2", n)
	}
	// An oversized key is a spec error, not a server-side truncation.
	respBig, _ := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "tok-alice",
		strings.Repeat("k", maxIdemKeyLen+1))
	if respBig.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized idempotency key: %d, want 400", respBig.StatusCode)
	}
}

func waitAuthedDone(t *testing.T, base, id, token string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp := getWith(t, base+"/v1/jobs/"+id+"?wait=5s", token)
		var v jobView
		err := json.NewDecoder(resp.Body).Decode(&v)
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

// TestJournalRestart is the acceptance scenario: run jobs against a
// journaled node, simulate a crash with an accepted-but-never-finished
// record in the log, and boot a fresh server on the same journal. The
// finished job must come back with its result, the in-flight one must be
// failed (interrupted), and the original idempotency key must dedupe onto
// the pre-restart record.
func TestJournalRestart(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"

	// First incarnation: one finished job under an idempotency key.
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	resp, out := analyzeWith(t, ts1.URL, `{"workload":"histogram"}`, "", "restart-key")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission: %d", resp.StatusCode)
	}
	doneID := out["id"]
	if v := waitJob(t, ts1.URL, doneID); v.State != jobDone {
		t.Fatalf("job state %q: %s", v.State, v.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts1.Close()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash tail: a job accepted (and started) whose finish
	// never hit the disk.
	jnl, _, err := journal.OpenWith(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashID := "j000042"
	if err := jnl.Append(journal.Record{
		Op: journal.OpAccepted, ID: crashID, Time: time.Now(),
		Workload: "CG", Scale: 2, Client: anonClient,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Op: journal.OpStarted, ID: crashID, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation on the same journal.
	_, ts2 := newTestServer(t, Config{Workers: 1, JournalPath: path})

	// The finished job survives with its result.
	rr := getWith(t, ts2.URL+"/v1/jobs/"+doneID, "")
	var restored jobView
	if err := json.NewDecoder(rr.Body).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if restored.State != jobDone || restored.Result == nil {
		t.Fatalf("restored job %s: state=%q result=%v", doneID, restored.State, restored.Result)
	}
	if restored.Result.Instrs <= 0 || len(restored.Result.Suggestions) == 0 {
		t.Fatalf("restored result is hollow: %+v", restored.Result)
	}

	// The interrupted job is terminal, failed, and long-polls answer
	// immediately (its doneCh must be closed after replay).
	cr := getWith(t, ts2.URL+"/v1/jobs/"+crashID+"?wait=10s", "")
	start := time.Now()
	var crashed jobView
	if err := json.NewDecoder(cr.Body).Decode(&crashed); err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("interrupted job blocked a long-poll for %s", waited)
	}
	if crashed.State != jobFailed || !strings.Contains(crashed.Error, "interrupted") {
		t.Fatalf("interrupted job: state=%q error=%q", crashed.State, crashed.Error)
	}

	// GET /v1/jobs lists both pre-restart jobs.
	lr := getWith(t, ts2.URL+"/v1/jobs", "")
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	ids := map[string]bool{}
	for _, v := range listing.Jobs {
		ids[v.ID] = true
	}
	if !ids[doneID] || !ids[crashID] {
		t.Fatalf("job listing %v missing pre-restart jobs %s/%s", ids, doneID, crashID)
	}

	// The original idempotency key still dedupes onto the restored record.
	resp2, out2 := analyzeWith(t, ts2.URL, `{"workload":"histogram"}`, "", "restart-key")
	if resp2.StatusCode != http.StatusAccepted || out2["id"] != doneID {
		t.Fatalf("idempotent resubmit after restart: %d id=%s, want %s",
			resp2.StatusCode, out2["id"], doneID)
	}

	// New submissions must not collide with replayed IDs.
	_, outNew := analyzeWith(t, ts2.URL, `{"workload":"histogram"}`, "", "")
	if ids[outNew["id"]] {
		t.Fatalf("fresh job reused replayed ID %s", outNew["id"])
	}

	sc := scrape(t, ts2.URL)
	// accepted + finished of the first job, accepted + started of the crash tail.
	if n := mustValue(t, sc, "dp_journal_replayed_records"); n < 4 {
		t.Fatalf("dp_journal_replayed_records = %v, want >= 4", n)
	}
}

// TestJournalTornTailRestart writes garbage over the journal tail and
// checks the next boot still restores the consistent prefix.
func TestJournalTornTailRestart(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	id := postAnalyze(t, ts1.URL, `{"workload":"histogram"}`)
	if v := waitJob(t, ts1.URL, id); v.State != jobDone {
		t.Fatalf("job state %q", v.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts1.Close()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x99\x00\x00\x00 torn mid-crash")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts2 := newTestServer(t, Config{Workers: 1, JournalPath: path})
	rr := getWith(t, ts2.URL+"/v1/jobs/"+id, "")
	var v jobView
	if err := json.NewDecoder(rr.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if v.State != jobDone || v.Result == nil {
		t.Fatalf("job %s after torn-tail restart: state=%q", id, v.State)
	}
	sc := scrape(t, ts2.URL)
	if n := mustValue(t, sc, "dp_journal_truncated_bytes"); n == 0 {
		t.Fatal("dp_journal_truncated_bytes = 0, want the torn tail counted")
	}
}

// TestDrainRaceJournaled races concurrent submissions against Drain on a
// journaled node and holds the invariant of satellite 2: every submission
// that got a 202 is completed AND journaled with a terminal record; every
// other submission was rejected with an explicit draining/queue-full
// answer. No job is silently dropped.
func TestDrainRaceJournaled(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"
	s, err := New(Config{Workers: 2, QueueDepth: 8, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)

	const submitters = 8
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		acceptedIDs []string
		rejected    int
	)
	stop := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, out := analyzeWith(t, ts.URL, `{"workload":"histogram"}`, "", "")
				switch resp.StatusCode {
				case http.StatusAccepted:
					mu.Lock()
					acceptedIDs = append(acceptedIDs, out["id"])
					mu.Unlock()
				case http.StatusServiceUnavailable:
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("unexpected submit status %d", resp.StatusCode)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()
	ts.Close()

	if len(acceptedIDs) == 0 {
		t.Fatal("the race accepted no submissions at all; nothing was tested")
	}

	// Every accepted job must be terminally journaled. Re-open the journal
	// (the server closed it on drain) and index its records.
	jnl, recs, err := journal.OpenWith(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	acceptedInLog := map[string]bool{}
	finishedInLog := map[string]string{}
	for _, r := range recs {
		switch r.Op {
		case journal.OpAccepted:
			acceptedInLog[r.ID] = true
		case journal.OpFinished:
			finishedInLog[r.ID] = r.State
		}
	}
	for _, id := range acceptedIDs {
		if !acceptedInLog[id] {
			t.Errorf("202-accepted job %s has no accepted record in the journal", id)
		}
		if st, ok := finishedInLog[id]; !ok {
			t.Errorf("202-accepted job %s was never journaled terminal", id)
		} else if st != jobDone {
			t.Errorf("drained job %s journaled %q, want done", id, st)
		}
	}
	// And nothing in the log is dangling: accepted implies finished.
	for id := range acceptedInLog {
		if _, ok := finishedInLog[id]; !ok {
			t.Errorf("journal holds accepted-but-unfinished job %s after a clean drain", id)
		}
	}
	t.Logf("drain race: %d accepted, %d rejected", len(acceptedIDs), rejected)
}
