package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"discopop/internal/journal"
	"discopop/internal/pipeline"
)

// drainNow shuts one server incarnation down cleanly so the next can own
// its journal file.
func drainNow(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts.Close()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCompactionBoundsReplay is the tentpole acceptance scenario:
// with tight compaction thresholds, N submissions must NOT mean a
// replay of ~3N records on the next boot — compaction rotates the log to
// checkpoint + live snapshot, so the restart replays records bounded by
// the store cap while every retained job still answers with its result.
func TestJournalCompactionBoundsReplay(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"
	const jobs = 16
	const storeCap = 4

	s1, err := New(Config{
		Workers: 2, JournalPath: path,
		maxRecords:        storeCap,
		JournalMaxRecords: 6,  // > one job's records, < two store caps
		JournalMaxBytes:   -1, // records are the deterministic trigger here
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	var lastID string
	for i := 0; i < jobs; i++ {
		lastID = postAnalyze(t, ts1.URL, `{"workload":"histogram"}`)
		if v := waitJob(t, ts1.URL, lastID); v.State != jobDone {
			t.Fatalf("job %s: state=%q error=%q", lastID, v.State, v.Error)
		}
	}
	want := waitJob(t, ts1.URL, lastID)
	sc := scrape(t, ts1.URL)
	if n := mustValue(t, sc, "dp_journal_compactions_total"); n < 1 {
		t.Fatalf("dp_journal_compactions_total = %v after %d jobs over a %d-record threshold", n, jobs, 6)
	}
	if n := mustValue(t, sc, "dp_journal_live_records"); n >= 3*jobs {
		t.Fatalf("dp_journal_live_records = %v — compaction never bounded the log", n)
	}
	drainNow(t, s1, ts1)

	// Restart: replay must be bounded by the live store, not the history.
	_, ts2 := newTestServer(t, Config{Workers: 1, JournalPath: path, maxRecords: storeCap})
	sc2 := scrape(t, ts2.URL)
	replayed := mustValue(t, sc2, "dp_journal_replayed_records")
	// The generation holds at most: one checkpoint, the snapshot
	// (2 records per retained job), and the appends since the last
	// rotation — which the 2x thrash guard caps below twice the
	// post-compaction baseline. 3*jobs is what an uncompacted log would
	// replay.
	if replayed > 2*(1+2*storeCap) || replayed >= 3*jobs {
		t.Fatalf("restart replayed %v records for %d submissions (store cap %d) — not bounded", replayed, jobs, storeCap)
	}
	// The retained pre-crash job still answers ?wait with its result.
	rr := getWith(t, ts2.URL+"/v1/jobs/"+lastID+"?wait=5s", "")
	var got jobView
	if err := json.NewDecoder(rr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if got.State != jobDone || got.Result == nil {
		t.Fatalf("restored job %s: state=%q result=%v", lastID, got.State, got.Result)
	}
	a, _ := json.Marshal(want.Result)
	b, _ := json.Marshal(got.Result)
	if string(a) != string(b) {
		t.Fatalf("restored result differs from the original:\npre  %s\npost %s", a, b)
	}
}

// TestJournalSpillRestore: a finished job whose result exceeds the 1 MiB
// record cap survives a restart — journaled as a hash, stored in the
// spill dir, and served back verbatim through ?wait after replay.
func TestJournalSpillRestore(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"

	// Fabricate the pre-crash journal directly: the analysis engine cannot
	// naturally produce a >1 MiB summary, but a coordinator aggregating
	// worker spans can, and the journal must not care which it was.
	bigNotes := strings.Repeat("n", 2<<20)
	res := &pipeline.WireReport{
		Instrs: 12345, Deps: 7, CUs: 3,
		Suggestions: []pipeline.WireSuggestion{{
			Rank: 1, Kind: "DOALL", Loc: "9:1", Coverage: 0.9,
			Speedup: 8, Score: 7.2, Notes: bigNotes,
		}},
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= journal.MaxRecordBytes {
		t.Fatalf("test result is only %d bytes; not oversized", len(raw))
	}
	jnl, _, err := journal.OpenWith(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	if err := jnl.Append(journal.Record{
		Op: journal.OpAccepted, ID: "j000001", Time: now,
		Workload: "histogram", Client: anonClient,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{
		Op: journal.OpFinished, ID: "j000001", Time: now,
		State: jobDone, Result: raw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, JournalPath: path})
	rr := getWith(t, ts.URL+"/v1/jobs/j000001?wait=5s", "")
	var got jobView
	if err := json.NewDecoder(rr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if got.State != jobDone || got.Result == nil {
		t.Fatalf("spilled job: state=%q result=%v error=%q", got.State, got.Result, got.Error)
	}
	if len(got.Result.Suggestions) != 1 || got.Result.Suggestions[0].Notes != bigNotes {
		t.Fatalf("spilled result came back mangled: %d suggestions, %d note bytes",
			len(got.Result.Suggestions), len(got.Result.Suggestions[0].Notes))
	}
	if got.Result.Instrs != 12345 {
		t.Fatalf("spilled result instrs = %d", got.Result.Instrs)
	}
	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_journal_spill_files"); n < 1 {
		t.Fatalf("dp_journal_spill_files = %v, want >= 1", n)
	}
	if n := mustValue(t, sc, "dp_journal_spill_bytes"); n < float64(journal.MaxRecordBytes) {
		t.Fatalf("dp_journal_spill_bytes = %v", n)
	}
}

// TestServerCompactionDifferential: a server booted from a compacted
// journal serves exactly the same job listing as one booted from the
// uncompacted log the compaction replaced.
func TestServerCompactionDifferential(t *testing.T) {
	dir := t.TempDir()
	orig := dir + "/orig.journal"
	copyTo := dir + "/copy.journal"

	// Settle a few jobs into the journal.
	s1, err := New(Config{Workers: 2, JournalPath: orig})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	for _, body := range []string{
		`{"workload":"histogram"}`, `{"workload":"EP"}`, `{"workload":"histogram","scale":2}`,
	} {
		id := postAnalyze(t, ts1.URL, body)
		if v := waitJob(t, ts1.URL, id); v.State != jobDone {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
	}
	drainNow(t, s1, ts1)
	data, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyTo, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Compact orig in place through the server's own snapshot exporter.
	s2, err := New(Config{Workers: 1, JournalPath: orig})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	if err := s2.journal.Compact(s2.jobs.exportRecords); err != nil {
		t.Fatal(err)
	}
	drainNow(t, s2, ts2)

	listing := func(path string) (string, float64) {
		s, err := New(Config{Workers: 1, JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer drainNow(t, s, ts)
		resp := getWith(t, ts.URL+"/v1/jobs", "")
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body), mustValue(t, scrape(t, ts.URL), "dp_journal_replayed_records")
	}
	compacted, nc := listing(orig)
	uncompacted, nu := listing(copyTo)
	if compacted != uncompacted {
		t.Fatalf("restore(compacted) != restore(uncompacted):\n%s\n%s", compacted, uncompacted)
	}
	// Same store, but the compacted log replays the checkpointed snapshot,
	// never more than the original history.
	if nc > nu+1 { // +1: the checkpoint marker itself
		t.Fatalf("compacted log replayed %v records, uncompacted %v", nc, nu)
	}
}

// TestJournalAppendErrorsSurface: when appends start failing, the loss is
// visible — dp_journal_append_errors_total counts it and /healthz flips
// to degraded instead of the old log-only reporting.
func TestJournalAppendErrorsSurface(t *testing.T) {
	path := t.TempDir() + "/jobs.journal"
	s, ts := newTestServer(t, Config{Workers: 1, JournalPath: path})

	hr := getWith(t, ts.URL+"/healthz", "")
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthy healthz: %d %q", hr.StatusCode, body)
	}

	// Kill the journal underneath the server: every transition append from
	// here on fails, the way a yanked volume or full disk would.
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	id := postAnalyze(t, ts.URL, `{"workload":"histogram"}`)
	if v := waitJob(t, ts.URL, id); v.State != jobDone {
		t.Fatalf("job should still run with a dead journal: %q %s", v.State, v.Error)
	}

	sc := scrape(t, ts.URL)
	if n := mustValue(t, sc, "dp_journal_append_errors_total"); n < 1 {
		t.Fatalf("dp_journal_append_errors_total = %v, want >= 1", n)
	}
	hr2 := getWith(t, ts.URL+"/healthz", "")
	body2, _ := io.ReadAll(hr2.Body)
	hr2.Body.Close()
	if hr2.StatusCode != http.StatusOK {
		t.Fatalf("degraded durability must not fail liveness: %d", hr2.StatusCode)
	}
	if !strings.Contains(string(body2), "degraded") {
		t.Fatalf("healthz body %q does not surface the degraded journal", body2)
	}
}

// TestConfigJournalThresholdDefaults pins the 0/negative semantics of the
// compaction threshold knobs.
func TestConfigJournalThresholdDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.JournalMaxBytes != defaultJournalMaxBytes || c.JournalMaxRecords != defaultJournalMaxRecords {
		t.Fatalf("zero-value thresholds = %d/%d", c.JournalMaxBytes, c.JournalMaxRecords)
	}
	c = Config{JournalMaxBytes: -1, JournalMaxRecords: -1}.withDefaults()
	if c.JournalMaxBytes != 0 || c.JournalMaxRecords != 0 {
		t.Fatalf("negative thresholds = %d/%d, want disabled (0)", c.JournalMaxBytes, c.JournalMaxRecords)
	}
	c = Config{JournalMaxBytes: 4096, JournalMaxRecords: 12}.withDefaults()
	if c.JournalMaxBytes != 4096 || c.JournalMaxRecords != 12 {
		t.Fatalf("explicit thresholds rewritten to %d/%d", c.JournalMaxBytes, c.JournalMaxRecords)
	}
}
