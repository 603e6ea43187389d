package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"discopop/internal/journal"
	"discopop/internal/metrics"
	"discopop/internal/obs"
)

// TestQueueWaitCountsFromAcceptance: with the one engine worker busy, a job's
// queue wait — queue_ms and the queue span alike — covers everything between
// its 202 and a worker picking it up, so the last of a burst waited at least
// as long as all the jobs before it ran. (While the server kept a second
// queue in front of the engine's, the wait in it was in no measurement.)
func TestQueueWaitCountsFromAcceptance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bodies := []string{ // the first is the long one; no two share a profile
		`{"workload":"CG@16"}`, `{"workload":"EP"}`, `{"workload":"kmeans"}`, `{"workload":"histogram"}`,
	}
	begin := time.Now()
	ids := make([]string, len(bodies))
	for i, body := range bodies {
		ids[i] = postAnalyze(t, ts.URL, body)
	}
	// Every job was accepted within burst of the first one's acceptance.
	burst := time.Since(begin)

	var ranBefore float64
	var last jobView
	for i, id := range ids {
		last = waitJob(t, ts.URL, id)
		if last.State != jobDone {
			t.Fatalf("job %s: %s (%s)", id, last.State, last.Error)
		}
		if i < len(ids)-1 {
			ranBefore += last.Result.ElapsedMS
		}
	}
	wantMS := ranBefore - float64(burst)/float64(time.Millisecond)
	if wantMS <= 0 {
		t.Fatalf("submitting took %v, longer than the %v ms the earlier jobs ran: nothing to assert", burst, ranBefore)
	}
	if got := last.Result.QueueMS; got < wantMS {
		t.Errorf("queue_ms of the last job = %.3f, want >= %.3f (the earlier jobs ran %.3f ms, the burst took %v)",
			got, wantMS, ranBefore, burst)
	}
	var span *obs.Span
	for i, sp := range last.Result.Spans {
		if sp.Name == "queue" && sp.Node == "" {
			span = &last.Result.Spans[i]
		}
	}
	if span == nil {
		t.Fatal("the last job has no queue span")
	}
	if got := float64(span.Dur) / float64(time.Millisecond); got < wantMS {
		t.Errorf("queue span of the last job = %.3f ms, want >= %.3f", got, wantMS)
	}
}

// TestJobViewWireGolden holds the JSON of a finished job to the bytes the
// service sent before internal/remote owned the shape: the recorded body of a
// coordinator's GET /v1/jobs/{id} (peer, trace id and grafted spans present)
// decodes into today's types with no field unknown to them, and encodes back
// to the same bytes — field names, order and omissions included.
func TestJobViewWireGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "job_view_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(golden))
	dec.DisallowUnknownFields()
	var view jobView
	if err := dec.Decode(&view); err != nil {
		t.Fatalf("the recorded job view does not decode: %v", err)
	}
	if view.Result == nil || view.Result.Peer == "" || view.Result.TraceID == "" ||
		len(view.Result.Spans) == 0 || len(view.Result.Suggestions) == 0 || view.Result.ElapsedMS == 0 {
		t.Fatalf("the recorded job view is hollow: %+v", view.Result)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Errorf("the job view re-encodes differently:\n got %s\nwant %s", again.Bytes(), golden)
	}
	// The journalled payload is the result alone, through the same type.
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(golden, &raw); err != nil {
		t.Fatal(err)
	}
	if payload, err := json.Marshal(view.Result); err != nil || !bytes.Equal(payload, raw.Result) {
		t.Errorf("the journalled result payload differs (%v):\n got %s\nwant %s", err, payload, raw.Result)
	}
}

// TestRejectedSubmissionLeavesNoRecord: a submission refused because the
// queue is full, or because the node drains, is answered 503 under its own
// reason and leaves nothing in the journal; what the journal does hold is one
// accepted and one finished record per 202, and no started record.
func TestRejectedSubmissionLeavesNoRecord(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"
	s, err := New(Config{Workers: 1, QueueDepth: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One job can run and one can wait, so of three heavy submissions in a
	// row at least the third finds the queue full.
	accepted := map[string]bool{}
	full := 0
	for i := 0; i < 3; i++ {
		resp, out := analyzeWith(t, ts.URL, `{"workload":"CG@`+strconv.Itoa(14+i)+`"}`, "", "")
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted[out["id"]] = true
		case http.StatusServiceUnavailable:
			full++
			if !strings.Contains(out["error"], "queue full") {
				t.Errorf("503 body %q does not name the full queue", out["error"])
			}
		default:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if full == 0 || len(accepted) == 0 {
		t.Fatalf("%d accepted, %d refused; want both", len(accepted), full)
	}
	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_jobs_rejected_total", metrics.L("reason", rejectQueueFull)); int(n) != full {
		t.Errorf("dp_jobs_rejected_total{queue_full} = %v, want %d", n, full)
	}
	if n := mustValue(t, sc, "dp_jobs_accepted_total"); int(n) != len(accepted) {
		t.Errorf("dp_jobs_accepted_total = %v, want %d", n, len(accepted))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, out := analyzeWith(t, ts.URL, `{"workload":"EP"}`, "", "")
	if resp.StatusCode != http.StatusServiceUnavailable || out["error"] != "draining" {
		t.Errorf("submission to a drained node: %d %q, want 503 draining", resp.StatusCode, out["error"])
	}

	jnl, recs, err := journal.OpenWith(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	ops := map[string][]string{}
	for _, r := range recs {
		ops[r.ID] = append(ops[r.ID], r.Op)
	}
	for id, got := range ops {
		if !accepted[id] {
			t.Errorf("the journal holds %v for %s, which was never answered 202", got, id)
		}
	}
	for id := range accepted {
		got := ops[id]
		sort.Strings(got) // a fast job's finished record can overtake its accepted one
		if !reflect.DeepEqual(got, []string{journal.OpAccepted, journal.OpFinished}) {
			t.Errorf("job %s journalled %v, want one accepted and one finished record", id, got)
		}
	}
}

// TestProfileEndpointIsDeterministic: GET /v1/workloads/{name}/profile runs
// the workload under the profiler outside the job path. Two concurrent
// requests for one workload serve the same, non-empty samples, and neither
// moves a job or report-memo counter.
func TestProfileEndpointIsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	get := func(name string) *obs.DecodedProfile {
		resp, err := http.Get(ts.URL + "/v1/workloads/" + name + "/profile")
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s profile: %d %v", name, resp.StatusCode, err)
			return nil
		}
		p, err := obs.DecodeLineProfile(data)
		if err != nil {
			t.Error(err)
			return nil
		}
		p.TimeNanos = 0 // the one field that is the request's, not the profile's
		return p
	}
	jobCounters := func(sc *metrics.Scrape) map[string]float64 {
		out := map[string]float64{}
		for _, p := range sc.Points {
			if strings.HasPrefix(p.Name, "dp_jobs_") || strings.HasPrefix(p.Name, "dp_report_cache_") {
				out[p.Name] += p.Value
			}
		}
		return out
	}

	before := jobCounters(scrape(t, ts.URL))
	var wg sync.WaitGroup
	var got [2]*obs.DecodedProfile
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = get("kmeans")
		}()
	}
	wg.Wait()
	if got[0] == nil || got[1] == nil {
		t.FailNow()
	}
	if len(got[0].Lines) == 0 || !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("concurrent GETs served different profiles:\n%+v\n%+v", got[0], got[1])
	}
	if after := jobCounters(scrape(t, ts.URL)); !reflect.DeepEqual(before, after) {
		t.Errorf("profile GETs moved job or memo counters:\nbefore %v\nafter  %v", before, after)
	}
}

// corpusJournals returns the journals of internal/journal's fuzz seed corpus,
// by seed name.
func corpusJournals(t *testing.T) map[string][]byte {
	dir := filepath.Join("..", "journal", "testdata", "fuzz", "FuzzJournalReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte("...")\n": one quoted Go string.
		_, lit, ok := strings.Cut(string(text), "[]byte(")
		lit = strings.TrimSuffix(strings.TrimSpace(lit), ")")
		data, err := strconv.Unquote(lit)
		if !ok || err != nil {
			t.Fatalf("corpus file %s: not one []byte literal (%v)", e.Name(), err)
		}
		out[e.Name()] = []byte(data)
	}
	return out
}

// TestRestoreIgnoresStartedRecords: nothing is recovered from the started
// records of journals written while the server had two queues — every
// journal of the seed corpus restores the same store with them and without.
func TestRestoreIgnoresStartedRecords(t *testing.T) {
	started := 0
	for name, data := range corpusJournals(t) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jnl, recs, err := journal.OpenWith(path, journal.Options{})
		if err != nil {
			continue // not a journal at all (the bad-magic seeds)
		}
		jnl.Close()
		var without []journal.Record
		for _, r := range recs {
			if r.Op == journal.OpStarted {
				started++
				continue
			}
			without = append(without, r)
		}
		restored := func(recs []journal.Record) ([]jobView, []string, string) {
			var js jobStore
			js.init(1024)
			interrupted := js.restore(recs)
			views := js.list()
			for i := range views {
				if views[i].Error == errInterrupted {
					views[i].Finished = nil // stamped with the time of the restore
				}
			}
			return views, interrupted, js.nextID()
		}
		v1, i1, n1 := restored(recs)
		v2, i2, n2 := restored(without)
		if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(i1, i2) || n1 != n2 {
			t.Errorf("%s: the store restored with started records differs from the one without:\n%+v %v %s\n%+v %v %s",
				name, v1, i1, n1, v2, i2, n2)
		}
	}
	if started == 0 {
		t.Error("the corpus holds no started record: nothing was tested")
	}
}
