package remote_test

// End-to-end multi-node harness: real dp-serve workers behind httptest
// listeners, a coordinator configured with their URLs, and the full
// bundled workload registry flowing through the remote stage. The
// coordinator's reports must be byte-identical to a local-only node's,
// and the workers' /metrics must prove the work actually landed on them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"discopop/internal/metrics"
	"discopop/internal/obs"
	"discopop/internal/pipeline"
	"discopop/internal/remote"
	"discopop/internal/server"
	"discopop/internal/workloads"
)

type node struct {
	srv *server.Server
	ts  *httptest.Server
}

func bootNode(t *testing.T, cfg server.Config) *node { return bootGated(t, cfg, nil) }

// bootGated boots a node that answers every request 503 while down is set
// (nil: never).
func bootGated(t *testing.T, cfg server.Config, down *atomic.Bool) *node {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	var h http.Handler = s
	if down != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
				return
			}
			s.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return &node{srv: s, ts: ts}
}

// analyzeOn submits one workload and returns the terminal job view as a
// decoded JSON object.
func analyzeOn(t *testing.T, base, workload string) map[string]any {
	t.Helper()
	return submitOn(t, base, map[string]any{"workload": workload})
}

// submitOn posts one analyze body and returns the job view once the job is
// done.
func submitOn(t *testing.T, base string, body map[string]any) map[string]any {
	t.Helper()
	id := postJob(t, base, body)
	view := waitView(t, base, id)
	if view["state"] != "done" {
		t.Fatalf("%v: job %s state %v: %v", body, id, view["state"], view["error"])
	}
	return view
}

// postJob posts one analyze body and returns the accepted job's id.
func postJob(t *testing.T, base string, body map[string]any) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze", "application/json", jsonBody(t, body))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || acc.ID == "" {
		t.Fatalf("submit %v: %v (id %q)", body, err, acc.ID)
	}
	return acc.ID
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// canonicalReport strips the fields that legitimately differ between a
// local and a proxied run — timings, cache state, serving peer — and
// re-marshals the rest with sorted keys, so equality is byte equality of
// the analysis content: instruction count, dependences, CUs, and the
// full ranked suggestion list.
func canonicalReport(t *testing.T, view map[string]any) []byte {
	t.Helper()
	result, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("job view has no result: %v", view)
	}
	delete(result, "elapsed_ms")
	delete(result, "queue_ms")
	delete(result, "cache_hit")
	delete(result, "peer")
	delete(result, "trace_id")
	delete(result, "spans")
	b, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func scrapeCounter(t *testing.T, base, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := scrape(t, base).Value(name, labels...)
	return v
}

func scrape(t *testing.T, base string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", base, err)
	}
	return sc
}

// TestE2EFleetMatchesLocal is the multi-node acceptance test: a
// coordinator with two peer workers must produce, for every workload in
// the registry, a report byte-identical to a local-only node's — and
// the workers' own job counters must show the analyses ran there. Every
// workload is submitted to the coordinator twice: the repeat is answered
// from its report memo, without a hop, with the same report.
func TestE2EFleetMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node e2e sweep in -short mode")
	}
	w1 := bootNode(t, server.Config{Workers: 2})
	w2 := bootNode(t, server.Config{Workers: 2})
	coord := bootNode(t, server.Config{
		Workers: 4,
		Peers:   []string{w1.ts.URL, w2.ts.URL},
	})
	local := bootNode(t, server.Config{Workers: 4})

	registry := workloads.List("")
	if len(registry) == 0 {
		t.Fatal("empty workload registry")
	}
	for _, info := range registry {
		fleetView := analyzeOn(t, coord.ts.URL, info.Name)
		localView := analyzeOn(t, local.ts.URL, info.Name)
		// Every fleet job must record the worker that served it (read
		// before canonicalization strips the field).
		if result, ok := fleetView["result"].(map[string]any); ok {
			if p, _ := result["peer"].(string); p != w1.ts.URL && p != w2.ts.URL {
				t.Errorf("%s: fleet job served by %q, not a configured worker", info.Name, p)
			}
		}
		repeatView := analyzeOn(t, coord.ts.URL, info.Name)
		if result := repeatView["result"].(map[string]any); result["cache_hit"] != true || result["peer"] != nil {
			t.Errorf("%s: repeat not answered from the memo: cache_hit %v, peer %v",
				info.Name, result["cache_hit"], result["peer"])
		}
		fleet := canonicalReport(t, fleetView)
		want := canonicalReport(t, localView)
		if string(fleet) != string(want) {
			t.Errorf("%s: fleet report differs from local:\nfleet: %s\nlocal: %s",
				info.Name, fleet, want)
		}
		if repeat := canonicalReport(t, repeatView); string(repeat) != string(want) {
			t.Errorf("%s: memoized report differs from local:\nmemo:  %s\nlocal: %s",
				info.Name, repeat, want)
		}
	}
	if hits := scrapeCounter(t, coord.ts.URL, "dp_report_cache_hits_total"); int(hits) != len(registry) {
		t.Errorf("coordinator answered %v repeats from its memo, want %d", hits, len(registry))
	}

	// The work must actually have landed on the workers: their own job
	// counters account for the whole sweep, and both peers took a share.
	n1 := scrapeCounter(t, w1.ts.URL, "dp_jobs_completed_total")
	n2 := scrapeCounter(t, w2.ts.URL, "dp_jobs_completed_total")
	if int(n1+n2) != len(registry) {
		t.Errorf("workers completed %v+%v jobs, want %d", n1, n2, len(registry))
	}
	if n1 == 0 || n2 == 0 {
		t.Errorf("fan-out did not reach both workers: %v vs %v", n1, n2)
	}
	if fb := scrapeCounter(t, coord.ts.URL, "dp_remote_fallbacks_total"); fb != 0 {
		t.Errorf("coordinator fell back locally %v times with a healthy fleet", fb)
	}
	// The coordinator proxied everything: per-peer request counters sum
	// to the registry size.
	var peerJobs float64
	for _, p := range scrape(t, coord.ts.URL).Points {
		if p.Name == "dp_peer_jobs_total" {
			peerJobs += p.Value
		}
	}
	if int(peerJobs) != len(registry) {
		t.Errorf("coordinator counted %v peer jobs, want %d", peerJobs, len(registry))
	}

	// Below the wire: the same sweep through an engine whose report memo
	// sits in front of a remote stage, each workload hopped and then answered
	// from the memo, each time for a freshly built module, against the local
	// pipeline. Suggestions must resolve to the regions and functions of the
	// job's own module, as the local run's do.
	stage := &remote.Stage{
		Client: remote.NewClient([]string{w1.ts.URL, w2.ts.URL}, remote.ClientOptions{}),
	}
	defer stage.Close()
	remotely := &pipeline.Pipeline{Stages: []pipeline.Stage{stage}}
	memo := pipeline.NewReportMemo(0)
	run := func(name string, p *pipeline.Pipeline, reports *pipeline.ReportMemo) *pipeline.Report {
		res, _ := pipeline.AnalyzeAllWith(p,
			[]pipeline.Job{{Name: name, Mod: workloads.MustBuild(name, 1).M}},
			pipeline.Options{Threads: 16, Cache: pipeline.NewProfileCache(), Reports: reports})
		if res[0].Err != nil {
			t.Fatalf("%s: %v", name, res[0].Err)
		}
		return res[0].Report
	}
	for _, info := range registry {
		want := describeRanked(t, run(info.Name, pipeline.New(), nil))
		for _, wantHit := range []bool{false, true} {
			rep := run(info.Name, remotely, memo)
			if (rep.RemotePeer == "") != wantHit || wantHit && !rep.CacheHit {
				t.Errorf("%s: cache_hit %v peer %q, want a memo hit: %v", info.Name, rep.CacheHit, rep.RemotePeer, wantHit)
			}
			if got := describeRanked(t, rep); got != want {
				t.Errorf("%s (hit %v): stage report differs from local:\nstage: %s\nlocal: %s",
					info.Name, wantHit, got, want)
			}
		}
	}
}

// describeRanked renders what a report says — statement, dependence and CU
// counts and the suggestions a wire report carries, with the region and
// function each resolves to — after checking that every region and function
// belongs to the job's module.
func describeRanked(t *testing.T, rep *pipeline.Report) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "instrs=%d deps=%d cus=%d", rep.Instrs, rep.NumDeps(), rep.NumCUs())
	for i, s := range rep.Ranked {
		if s.Score <= 0 || i == 100 {
			break
		}
		region, fn := -1, -1
		if s.Region != nil {
			if rep.Mod.Regions[s.Region.ID] != s.Region {
				t.Fatalf("%s: suggestion %d's region is not the job module's", rep.Mod.Name, i)
			}
			region = s.Region.ID
		}
		if s.Func != nil {
			if s.Func.Module != rep.Mod {
				t.Fatalf("%s: suggestion %d's function is not the job module's", rep.Mod.Name, i)
			}
			fn = s.Func.ID
		}
		fmt.Fprintf(&b, "\n%s %s %v %v %v %v %q region=%d func=%d",
			s.Kind, s.Loc, s.Coverage, s.LocalSpeedup, s.Imbalance, s.Score, s.Notes, region, fn)
	}
	return b.String()
}

// TestE2EThreeNodeInlineAndModule drives a 3-worker fleet with the other
// two body kinds — inline pattern modules and raw serialized modules —
// making sure proxying is not workload-registry-specific.
func TestE2EThreeNodeInlineAndModule(t *testing.T) {
	workers := []*node{
		bootNode(t, server.Config{Workers: 1}),
		bootNode(t, server.Config{Workers: 1}),
		bootNode(t, server.Config{Workers: 1}),
	}
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.ts.URL
	}
	coord := bootNode(t, server.Config{Workers: 3, Peers: peers})

	// Inline kernels proxied through the fleet still classify correctly.
	view := submitOn(t, coord.ts.URL, inlineProbe)
	result := view["result"].(map[string]any)
	suggestions, _ := result["suggestions"].([]any)
	if len(suggestions) == 0 {
		t.Fatal("proxied inline module produced no suggestions")
	}
	first := suggestions[0].(map[string]any)
	if first["kind"] != "DOALL" {
		t.Errorf("doall kernel classified as %v", first["kind"])
	}

	// Work spread: with three single-worker peers and several jobs, at
	// least two peers must have seen traffic. Each job is a distinct module
	// (a repeat would be answered from the coordinator's memo).
	for i := 1; i <= 5; i++ {
		analyzeOn(t, coord.ts.URL, fmt.Sprintf("matmul@%d", i))
	}
	busy := 0
	for _, w := range workers {
		if scrapeCounter(t, w.ts.URL, "dp_jobs_completed_total") > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of 3 workers saw traffic", busy)
	}
}

// TestE2EAuthedFleet boots workers that require bearer auth and checks
// the coordinator's peer token flows through the whole submit-and-poll
// path, while a coordinator with a bad token is authoritatively rejected
// and falls back to local analysis instead of benching the workers.
func TestE2EAuthedFleet(t *testing.T) {
	tokens := map[string]string{"fleet-token": "coordinator"}
	w1 := bootNode(t, server.Config{Workers: 1, Tokens: tokens})
	w2 := bootNode(t, server.Config{Workers: 1, Tokens: tokens})
	peers := []string{w1.ts.URL, w2.ts.URL}

	coord := bootNode(t, server.Config{
		Workers: 2,
		Peers:   peers,
		Remote:  remote.ClientOptions{Token: "fleet-token"},
	})
	view := analyzeOn(t, coord.ts.URL, "histogram")
	result := view["result"].(map[string]any)
	if p, _ := result["peer"].(string); p != w1.ts.URL && p != w2.ts.URL {
		t.Fatalf("authed fleet job served by %q, not a worker", p)
	}
	if fb := scrapeCounter(t, coord.ts.URL, "dp_remote_fallbacks_total"); fb != 0 {
		t.Errorf("authed coordinator fell back %v times", fb)
	}

	// The wrong token is an authoritative 401: the job must still finish
	// (local fallback), the workers must count the auth rejections, and
	// they must not end up marked unhealthy.
	badCoord := bootNode(t, server.Config{
		Workers: 2,
		Peers:   peers,
		Remote:  remote.ClientOptions{Token: "not-the-token"},
	})
	if view := analyzeOn(t, badCoord.ts.URL, "histogram@2"); view["state"] != "done" {
		t.Fatalf("mis-authed coordinator job: %v", view)
	}
	if fb := scrapeCounter(t, badCoord.ts.URL, "dp_remote_fallbacks_total"); fb != 1 {
		t.Errorf("mis-authed coordinator fallbacks = %v, want 1", fb)
	}
	rejects := 0.0
	for _, w := range []*node{w1, w2} {
		rejects += scrapeCounter(t, w.ts.URL, "dp_jobs_rejected_total", metrics.L("reason", "auth"))
	}
	if rejects == 0 {
		t.Error("workers counted no auth rejections")
	}
}

// inlineProbe is an inline submission body: one DOALL kernel.
var inlineProbe = map[string]any{
	"inline": map[string]any{
		"name":    "probe",
		"kernels": []map[string]any{{"pattern": "doall", "n": 64}},
	},
}

// waitView long-polls job id until it leaves the queue and returns its view.
func waitView(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view["state"] != "queued" {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still queued", id)
		}
	}
}

// spansOf decodes the span tree a job view's result carries.
func spansOf(t *testing.T, view map[string]any) []obs.Span {
	t.Helper()
	result, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result in %v", view)
	}
	raw, err := json.Marshal(result["spans"])
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("result spans do not decode: %v", err)
	}
	return spans
}

// TestE2EFleetTrace is the cross-node tracing acceptance test: a job
// proxied through a coordinator must come back with the worker's spans —
// its queue wait and at least two pipeline stages — grafted under the
// coordinator's remote span, and the coordinator's trace endpoint must
// render the combined tree as loadable Chrome trace JSON with the worker
// as its own process.
func TestE2EFleetTrace(t *testing.T) {
	worker := bootNode(t, server.Config{Workers: 1})
	coord := bootNode(t, server.Config{Workers: 1, Peers: []string{worker.ts.URL}})

	view := analyzeOn(t, coord.ts.URL, "histogram")
	spans := spansOf(t, view)
	if len(spans) == 0 {
		t.Fatal("coordinator job result carries no spans")
	}

	remoteIdx := -1
	for i, s := range spans {
		if s.Name == "remote" && s.Node == "" {
			remoteIdx = i
		}
	}
	if remoteIdx == -1 {
		t.Fatalf("no local remote span in %+v", spans)
	}
	if skew := spans[remoteIdx].Attrs["clock_skew_ns"]; skew == "" {
		t.Error("remote span has no clock_skew_ns attr")
	}
	if peer := spans[remoteIdx].Attrs["peer"]; peer != worker.ts.URL {
		t.Errorf("remote span peer = %q, want %q", peer, worker.ts.URL)
	}

	// Worker-side spans: stamped with the peer URL, rooted under the
	// remote span, covering the worker's queue wait and >= 2 stages.
	underRemote := func(i int) bool {
		for hops := 0; i >= 0 && hops <= len(spans); hops++ {
			if i == remoteIdx {
				return true
			}
			i = spans[i].Parent
		}
		return false
	}
	stages := map[string]bool{}
	sawQueue := false
	for i, s := range spans {
		if s.Node != worker.ts.URL {
			continue
		}
		if !underRemote(i) {
			t.Errorf("worker span %q not nested under the remote span", s.Name)
		}
		switch s.Name {
		case "queue":
			sawQueue = true
		case "job":
		default:
			stages[s.Name] = true
		}
	}
	if !sawQueue {
		t.Error("coordinator trace has no worker-side queue span")
	}
	if len(stages) < 2 {
		t.Errorf("coordinator trace has %d worker pipeline stages (%v), want >= 2", len(stages), stages)
	}

	// The coordinator's trace endpoint renders the combined tree with the
	// worker as a second process.
	id, _ := view["id"].(string)
	resp, err := http.Get(coord.ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("coordinator trace is not valid JSON: %v", err)
	}
	procs := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Args["name"]] = ev.Pid
		}
	}
	if procs["local"] == 0 || procs[worker.ts.URL] == 0 {
		t.Errorf("trace processes = %v, want local and %s", procs, worker.ts.URL)
	}
}
