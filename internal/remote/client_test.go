package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discopop/internal/ir"
	"discopop/internal/pipeline"
	"discopop/internal/remote"
	"discopop/internal/workloads"
)

// fakePeer is a minimal dp-serve stand-in whose behavior is switchable
// per test: it implements just enough of POST /v1/analyze and GET
// /v1/jobs/{id} for the client, with injectable failures.
type fakePeer struct {
	ts *httptest.Server

	// mode selects the failure to inject:
	//   ok             accept and complete normally
	//   unavailable    503 every submission
	//   hang           accept submissions but never answer polls
	//   garbage-accept 202 with a non-JSON body
	//   garbage-poll   accept, then non-JSON poll responses (mid-job)
	//   reject         400 every submission
	//   failjob        accept, then report the analysis as failed
	//   evict          accept, then 404 every poll (jobStore evicted it)
	//   ratelimit      429 + Retry-After every submission (never admits)
	//   ratelimit-once 429 + Retry-After while rateLeft > 0, then ok
	mode atomic.Value

	submits  atomic.Int64
	done     atomic.Int64
	nextID   atomic.Int64
	rateLeft atomic.Int64 // remaining 429s in ratelimit-once mode

	mu    sync.Mutex
	keys  []string // Idempotency-Key header per submission
	auths []string // Authorization header per request (submits and polls)
}

func (p *fakePeer) record(r *http.Request, submission bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if submission {
		p.keys = append(p.keys, r.Header.Get("Idempotency-Key"))
	}
	p.auths = append(p.auths, r.Header.Get("Authorization"))
}

func (p *fakePeer) seenKeys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.keys...)
}

func newFakePeer(mode string) *fakePeer {
	p := &fakePeer{}
	p.mode.Store(mode)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		p.submits.Add(1)
		p.record(r, true)
		switch p.mode.Load().(string) {
		case "unavailable":
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		case "reject":
			http.Error(w, `{"error":"bad module"}`, http.StatusBadRequest)
			return
		case "garbage-accept":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, "]]]] this is not json")
			return
		case "ratelimit":
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"over quota"}`, http.StatusTooManyRequests)
			return
		case "ratelimit-once":
			if p.rateLeft.Add(-1) >= 0 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
				return
			}
		}
		id := fmt.Sprintf("j%06d", p.nextID.Add(1))
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		p.record(r, false)
		switch p.mode.Load().(string) {
		case "hang":
			// Longer than any client timeout used in these tests.
			time.Sleep(2 * time.Second)
			http.Error(w, "too late", http.StatusInternalServerError)
			return
		case "garbage-poll":
			fmt.Fprint(w, "<<<< mid-job garbage")
			return
		case "failjob":
			json.NewEncoder(w).Encode(map[string]any{
				"state": "failed", "error": "interpreter panic: out of range",
			})
			return
		case "evict":
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		p.done.Add(1)
		json.NewEncoder(w).Encode(map[string]any{
			"state": "done",
			"result": map[string]any{
				"instrs": 42, "deps": 7, "cus": 3,
				"suggestions": []map[string]any{{
					"rank": 1, "kind": "DOALL", "loc": "1:5",
					"coverage": 0.5, "speedup": 16.0, "score": 8.0,
					"notes": "canned",
				}},
			},
		})
	})
	p.ts = httptest.NewServer(mux)
	return p
}

// fastOpts are client options tuned so failure paths resolve in
// milliseconds instead of the production defaults: an attempt times out
// after half a second, and one failure takes a peer down for the test.
func fastOpts() remote.ClientOptions {
	return remote.ClientOptions{
		JobTimeout:    500 * time.Millisecond,
		FailThreshold: 1,
		Cooldown:      time.Hour, // a failed peer stays down for the test
	}
}

func encodedModule(t *testing.T) []byte {
	t.Helper()
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ir.Encode(prog.M)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestFailoverOn503(t *testing.T) {
	bad := newFakePeer("unavailable")
	good := newFakePeer("ok")
	defer bad.ts.Close()
	defer good.ts.Close()

	c := remote.NewClient([]string{bad.ts.URL, good.ts.URL}, fastOpts())
	rep, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	if err != nil {
		t.Fatalf("analyze with one 503 peer: %v", err)
	}
	if rep.Instrs != 42 || rep.Peer != good.ts.URL {
		t.Fatalf("report %+v did not come from the good peer", rep)
	}
	st := c.Stats()
	var badSt, goodSt remote.PeerStats
	for _, s := range st {
		if s.URL == bad.ts.URL {
			badSt = s
		} else {
			goodSt = s
		}
	}
	if badSt.Failures == 0 && goodSt.Failures == 0 {
		t.Fatalf("no failure recorded anywhere: %+v", st)
	}
	if goodSt.Jobs+badSt.Jobs != 1 {
		t.Fatalf("want exactly 1 completed job, got %+v", st)
	}
}

func TestFailoverOnTimeout(t *testing.T) {
	hang := newFakePeer("hang")
	good := newFakePeer("ok")
	defer hang.ts.Close()
	defer good.ts.Close()

	// hang accepts the submission and then never answers the poll: the
	// per-attempt JobTimeout must expire and the job resubmit elsewhere.
	c := remote.NewClient([]string{hang.ts.URL, good.ts.URL}, fastOpts())
	start := time.Now()
	rep, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	if err != nil {
		t.Fatalf("analyze with one hanging peer: %v", err)
	}
	if rep.Peer == hang.ts.URL {
		t.Fatal("report attributed to the hanging peer")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("failover took %s; the timeout did not bound the attempt", elapsed)
	}
}

func TestFailoverOnGarbageMidJob(t *testing.T) {
	garbled := newFakePeer("garbage-poll")
	good := newFakePeer("ok")
	defer garbled.ts.Close()
	defer good.ts.Close()

	// The peer accepts the job, then answers polls with garbage: the
	// client must abandon the in-flight job and resubmit to the next peer.
	c := remote.NewClient([]string{garbled.ts.URL, good.ts.URL}, fastOpts())
	rep, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	if err != nil {
		t.Fatalf("analyze with one garbage peer: %v", err)
	}
	if rep.Peer != good.ts.URL {
		t.Fatalf("report from %s, want the good peer", rep.Peer)
	}
	if garbled.submits.Load() == 0 {
		t.Fatal("the garbage peer never saw the submission")
	}
}

func TestJobEvictionFailsOverWithoutPenalty(t *testing.T) {
	evict := newFakePeer("evict")
	good := newFakePeer("ok")
	defer evict.ts.Close()
	defer good.ts.Close()

	// The first peer accepts the job but its bounded jobStore evicts the
	// record before the poll: the client must resubmit to the next peer,
	// and — since the 404 is an authoritative answer from a live worker,
	// not a transport fault — the evicting peer must stay healthy even at
	// FailThreshold=1.
	c := remote.NewClient([]string{evict.ts.URL, good.ts.URL}, fastOpts())
	rep, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	if err != nil {
		t.Fatalf("analyze with one evicting peer: %v", err)
	}
	if rep.Peer != good.ts.URL {
		t.Fatalf("report from %s, want the good peer", rep.Peer)
	}
	for _, s := range c.Stats() {
		if s.URL != evict.ts.URL {
			continue
		}
		if s.Failures != 0 {
			t.Fatalf("eviction counted as %d transport failures", s.Failures)
		}
		if !s.Healthy {
			t.Fatal("evicting peer was pushed into cooldown")
		}
	}
}

func TestRejectionIsTerminal(t *testing.T) {
	rej := newFakePeer("reject")
	good := newFakePeer("ok")
	defer rej.ts.Close()
	defer good.ts.Close()

	// A 400 is an authoritative answer about the payload: retrying the
	// same bytes on another peer would fail identically, so the client
	// must NOT fail over. (Peer order is deterministic only with one
	// peer, so probe the rejecting peer alone.)
	c := remote.NewClient([]string{rej.ts.URL}, fastOpts())
	_, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	var rerr *remote.RemoteError
	if err == nil || !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !strings.Contains(err.Error(), "bad module") {
		t.Fatalf("error %q does not carry the peer's message", err)
	}
	// The rejecting peer must not be marked unhealthy: it answered.
	if st := c.Stats()[0]; !st.Healthy || st.Failures != 0 {
		t.Fatalf("authoritative rejection counted as peer failure: %+v", st)
	}
}

// TestRejectedSubmissionFallsBackLocally pins the stage-level policy
// above the client: a fleet that rejects the payload (wire limits
// stricter than local analysis) must not fail the job — the stage runs
// the local pipeline instead.
func TestRejectedSubmissionFallsBackLocally(t *testing.T) {
	rej := newFakePeer("reject")
	defer rej.ts.Close()

	stage := &remote.Stage{Client: remote.NewClient([]string{rej.ts.URL}, fastOpts())}
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pipeline.Context{Mod: prog.M, Opt: pipeline.Options{Threads: 16}}
	if err := stage.Run(ctx); err != nil {
		t.Fatalf("stage must absorb a fleet rejection, got %v", err)
	}
	if stage.Fallbacks() != 1 || ctx.Profile == nil {
		t.Fatalf("rejection did not trigger a local fallback (fallbacks=%d)", stage.Fallbacks())
	}
}

// TestUnencodableModuleRunsLocally: a module past one of the codec's caps
// (here a 300-byte name, which an inline spec does not bound) would be
// rejected by any peer, so the stage runs it locally without a hop, as it
// does after a rejection, instead of failing the job.
func TestUnencodableModuleRunsLocally(t *testing.T) {
	ok := newFakePeer("ok")
	defer ok.ts.Close()

	stage := &remote.Stage{Client: remote.NewClient([]string{ok.ts.URL}, fastOpts())}
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	prog.M.Name = strings.Repeat("n", 300)
	ctx := &pipeline.Context{Mod: prog.M, Opt: pipeline.Options{Threads: 16}}
	if err := stage.Run(ctx); err != nil {
		t.Fatalf("stage must run an unencodable module locally, got %v", err)
	}
	if stage.Fallbacks() != 1 || ctx.Profile == nil {
		t.Fatalf("unencodable module did not run locally (fallbacks=%d)", stage.Fallbacks())
	}
	ok.mu.Lock()
	defer ok.mu.Unlock()
	if n := len(ok.auths); n != 0 {
		t.Fatalf("peer got %d requests for a module no peer accepts", n)
	}
}

func TestFailedAnalysisIsTerminal(t *testing.T) {
	failing := newFakePeer("failjob")
	good := newFakePeer("ok")
	defer failing.ts.Close()
	defer good.ts.Close()

	c := remote.NewClient([]string{failing.ts.URL}, fastOpts())
	_, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	var rerr *remote.RemoteError
	if err == nil || !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError for failed analysis, got %v", err)
	}
	if !strings.Contains(err.Error(), "interpreter panic") {
		t.Fatalf("error %q lost the analysis failure detail", err)
	}
	_ = good
}

func TestHealthCooldownSkipsDownPeer(t *testing.T) {
	bad := newFakePeer("unavailable")
	good := newFakePeer("ok")
	defer bad.ts.Close()
	defer good.ts.Close()

	c := remote.NewClient([]string{bad.ts.URL, good.ts.URL}, fastOpts())
	enc := encodedModule(t)
	if _, err := c.AnalyzeBytes(context.Background(), enc, remote.Spec{}); err != nil {
		t.Fatal(err)
	}
	seen := bad.submits.Load()
	// With FailThreshold 1 and a one-hour cooldown, the bad peer must not
	// receive any further submissions.
	for i := 0; i < 4; i++ {
		if _, err := c.AnalyzeBytes(context.Background(), enc, remote.Spec{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := bad.submits.Load(); got != seen {
		t.Fatalf("down peer got %d more submissions during cooldown", got-seen)
	}
	for _, s := range c.Stats() {
		if s.URL == bad.ts.URL && s.Healthy {
			t.Fatal("down peer reported healthy")
		}
	}
}

func TestAllPeersDownLocalFallback(t *testing.T) {
	bad1 := newFakePeer("unavailable")
	bad2 := newFakePeer("unavailable")
	defer bad1.ts.Close()
	defer bad2.ts.Close()

	stage := &remote.Stage{
		Client: remote.NewClient([]string{bad1.ts.URL, bad2.ts.URL}, fastOpts()),
	}
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pipeline.Context{Mod: prog.M, Opt: pipeline.Options{Threads: 16}}
	if err := stage.Run(ctx); err != nil {
		t.Fatalf("stage with dead fleet: %v", err)
	}
	if stage.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", stage.Fallbacks())
	}
	// The local pipeline really ran: full products, not a wire summary.
	if ctx.Profile == nil || ctx.CUs == nil || len(ctx.Ranked) == 0 {
		t.Fatal("local fallback did not produce a full analysis")
	}
	if ctx.RemotePeer != "" {
		t.Fatalf("fallback claims peer %q", ctx.RemotePeer)
	}

	// Both peers now sit in cooldown: the next call must short-circuit to
	// ErrNoPeers without any network traffic.
	b1, b2 := bad1.submits.Load(), bad2.submits.Load()
	ctx2 := &pipeline.Context{Mod: prog.M, Opt: pipeline.Options{Threads: 16}}
	if err := stage.Run(ctx2); err != nil {
		t.Fatalf("second fallback run: %v", err)
	}
	if stage.Fallbacks() != 2 {
		t.Fatalf("fallbacks = %d, want 2", stage.Fallbacks())
	}
	if bad1.submits.Load() != b1 || bad2.submits.Load() != b2 {
		t.Fatal("client probed peers that are in cooldown")
	}
}

// TestStageCloseAbortsInFlightJob pins the drain path: Close must cancel
// a remote submission stuck in a long-poll well before the client's
// JobTimeout, and the aborted job must not start a local fallback
// analysis nobody is waiting for.
func TestStageCloseAbortsInFlightJob(t *testing.T) {
	hang := newFakePeer("hang")
	defer hang.ts.Close()

	opts := fastOpts()
	opts.JobTimeout = time.Hour // only Close can unblock the attempt
	stage := &remote.Stage{Client: remote.NewClient([]string{hang.ts.URL}, opts)}
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pipeline.Context{Mod: prog.M, Opt: pipeline.Options{Threads: 16}}
	runErr := make(chan error, 1)
	go func() { runErr <- stage.Run(ctx) }()
	time.Sleep(100 * time.Millisecond)
	stage.Close()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("aborted run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the in-flight long-poll")
	}
	if stage.Fallbacks() != 0 || ctx.Profile != nil {
		t.Fatal("aborted job ran the local fallback")
	}
}

// TestRetryAfterBackoffOn429 pins satellite 3: a 429 on submit is not a
// transport failure. The client must honor the peer's Retry-After, retry
// the same peer after the delay, and leave its health untouched — even at
// FailThreshold=1, where misclassifying the 429 would bench the peer for
// the cooldown.
func TestRetryAfterBackoffOn429(t *testing.T) {
	p := newFakePeer("ratelimit-once")
	p.rateLeft.Store(1) // first submission 429s with Retry-After: 1, then ok
	defer p.ts.Close()

	opts := fastOpts()
	opts.JobTimeout = 10 * time.Second
	c := remote.NewClient([]string{p.ts.URL}, opts)
	start := time.Now()
	rep, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	if err != nil {
		t.Fatalf("analyze through a transient 429: %v", err)
	}
	if rep.Instrs != 42 {
		t.Fatalf("bad report %+v", rep)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("job completed in %s; the advertised Retry-After was not honored", elapsed)
	}
	if got := p.submits.Load(); got != 2 {
		t.Fatalf("peer saw %d submissions, want 2 (429 then retry)", got)
	}
	st := c.Stats()[0]
	if st.Failures != 0 || !st.Healthy {
		t.Fatalf("429 counted against peer health: %+v", st)
	}
}

// TestRateLimitExhaustedSurfaces bounds the backoff: a peer that never
// admits the client yields an error after maxRateRetries extra attempts
// (the stage then falls back locally), still without a health penalty.
func TestRateLimitExhaustedSurfaces(t *testing.T) {
	p := newFakePeer("ratelimit") // 429 forever, Retry-After: 0
	defer p.ts.Close()

	c := remote.NewClient([]string{p.ts.URL}, fastOpts())
	_, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{})
	if err == nil {
		t.Fatal("want an error from a permanently rate-limiting fleet")
	}
	if !strings.Contains(err.Error(), "rate-limited") {
		t.Fatalf("error %q does not name the rate limit", err)
	}
	// 1 initial attempt + 2 bounded retries.
	if got := p.submits.Load(); got != 3 {
		t.Fatalf("peer saw %d submissions, want 3", got)
	}
	st := c.Stats()[0]
	if st.Failures != 0 || !st.Healthy {
		t.Fatalf("429s counted against peer health: %+v", st)
	}
}

// TestIdempotencyKeyReusedAcrossFailover checks the client generates one
// key per logical job and presents it to every peer it tries, so a worker
// that silently kept the first attempt dedupes the retry; a second logical
// job must get a fresh key.
func TestIdempotencyKeyReusedAcrossFailover(t *testing.T) {
	evict := newFakePeer("evict")
	good := newFakePeer("ok")
	defer evict.ts.Close()
	defer good.ts.Close()

	c := remote.NewClient([]string{evict.ts.URL, good.ts.URL}, fastOpts())
	enc := encodedModule(t)
	if _, err := c.AnalyzeBytes(context.Background(), enc, remote.Spec{}); err != nil {
		t.Fatalf("analyze with failover: %v", err)
	}
	keys := append(evict.seenKeys(), good.seenKeys()...)
	if len(keys) != 2 {
		t.Fatalf("want 2 submissions across the fleet, saw keys %q", keys)
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("failover attempts carried keys %q, want one reused non-empty key", keys)
	}
	first := keys[0]

	// A new logical job must not reuse the old key (it would dedupe onto
	// the previous job's record).
	if _, err := c.AnalyzeBytes(context.Background(), enc, remote.Spec{}); err != nil {
		t.Fatal(err)
	}
	all := append(evict.seenKeys(), good.seenKeys()...)
	last := all[len(all)-1]
	if last == "" || last == first {
		t.Fatalf("second job reused key %q", last)
	}
}

// TestClientSendsBearerToken checks ClientOptions.Token reaches both the
// submit and the poll as an Authorization header, and that no header is
// sent when unset.
func TestClientSendsBearerToken(t *testing.T) {
	p := newFakePeer("ok")
	defer p.ts.Close()

	opts := fastOpts()
	opts.JobTimeout = 10 * time.Second
	opts.Token = "sekret-worker-token"
	c := remote.NewClient([]string{p.ts.URL}, opts)
	if _, err := c.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	auths := append([]string(nil), p.auths...)
	p.mu.Unlock()
	if len(auths) < 2 {
		t.Fatalf("want a submit and at least one poll, saw %d requests", len(auths))
	}
	for i, a := range auths {
		if a != "Bearer sekret-worker-token" {
			t.Fatalf("request %d Authorization = %q", i, a)
		}
	}

	bare := remote.NewClient([]string{p.ts.URL}, fastOpts())
	if _, err := bare.AnalyzeBytes(context.Background(), encodedModule(t), remote.Spec{}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	tail := p.auths[len(auths):]
	p.mu.Unlock()
	for i, a := range tail {
		if a != "" {
			t.Fatalf("tokenless request %d sent Authorization %q", i, a)
		}
	}
}

// TestConcurrentFanOut drives one shared Client from many goroutines
// (the engine-worker pattern) under -race: all jobs must complete and
// spread across both peers.
func TestConcurrentFanOut(t *testing.T) {
	p1 := newFakePeer("ok")
	p2 := newFakePeer("ok")
	defer p1.ts.Close()
	defer p2.ts.Close()

	c := remote.NewClient([]string{p1.ts.URL, p2.ts.URL}, remote.ClientOptions{JobTimeout: 10 * time.Second})
	enc := encodedModule(t)
	const goroutines, perG = 8, 4
	var wg sync.WaitGroup
	var completed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rep, err := c.AnalyzeBytes(context.Background(), enc, remote.Spec{})
				if err != nil {
					t.Errorf("concurrent analyze: %v", err)
					return
				}
				if rep.Instrs != 42 {
					t.Errorf("bad report %+v", rep)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if completed.Load() != goroutines*perG {
		t.Fatalf("completed %d of %d", completed.Load(), goroutines*perG)
	}
	s1, s2 := p1.submits.Load(), p2.submits.Load()
	if s1+s2 != goroutines*perG {
		t.Fatalf("peers saw %d+%d submissions, want %d", s1, s2, goroutines*perG)
	}
	if s1 == 0 || s2 == 0 {
		t.Fatalf("round-robin did not spread load: %d vs %d", s1, s2)
	}
}
