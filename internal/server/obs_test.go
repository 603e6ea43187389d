package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"discopop/internal/metrics"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// TestJobTraceEndpoint validates the Chrome trace-event export of a
// finished job: parseable JSON, monotone timestamps, stage intervals
// nested inside the job root, and the queue span present.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze",
		strings.NewReader(`{"workload":"histogram"}`))
	req.Header.Set("X-DP-Trace", "trace-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/analyze: %d", resp.StatusCode)
	}
	view := waitJob(t, ts.URL, accepted.ID)
	if view.State != jobDone {
		t.Fatalf("job state %s: %s", view.State, view.Error)
	}
	if view.Result.TraceID != "trace-abc" {
		t.Errorf("result trace_id = %q, want the X-DP-Trace value", view.Result.TraceID)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + accepted.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var jobEnd float64
	seen := map[string]bool{}
	prev := -1.0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		seen[ev.Name] = true
		if ev.Ts < prev {
			t.Errorf("event %s at %v breaks timestamp monotonicity (prev %v)", ev.Name, ev.Ts, prev)
		}
		prev = ev.Ts
		if ev.Name == "job" {
			jobEnd = ev.Ts + ev.Dur
		} else if ev.Name != "queue" && ev.Ts+ev.Dur > jobEnd+0.001 {
			t.Errorf("span %s [%v,%v] not nested in job (ends %v)",
				ev.Name, ev.Ts, ev.Ts+ev.Dur, jobEnd)
		}
	}
	for _, want := range []string{"job", "queue", "profile", "rank"} {
		if !seen[want] {
			t.Errorf("trace missing span %q (saw %v)", want, seen)
		}
	}

	// Text rendering of the same trace.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + accepted.ID + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace?format=text: %d", resp.StatusCode)
	}
	if !strings.Contains(string(text), "trace trace-abc") || !strings.Contains(string(text), "profile") {
		t.Errorf("text trace incomplete:\n%s", text)
	}

	// Error surface: unknown job, unknown format.
	for path, want := range map[string]int{
		"/v1/jobs/nope/trace":                          http.StatusNotFound,
		"/v1/jobs/" + accepted.ID + "/trace?format=xy": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestDebugRecentSurvivesEviction pins the small fix of the issue: span
// summaries of finished jobs stay queryable after the job records
// themselves have been evicted by the store cap.
func TestDebugRecentSurvivesEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, maxRecords: 2})

	var ids []string
	for i := 0; i < 4; i++ {
		id := postAnalyze(t, ts.URL, `{"workload":"histogram"}`)
		view := waitJob(t, ts.URL, id)
		if view.State != jobDone {
			t.Fatalf("job %s: %s %s", id, view.State, view.Error)
		}
		ids = append(ids, id)
	}

	// The earliest job's record must be gone (cap 2, 4 finished)...
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still served: %d", resp.StatusCode)
	}

	// ...but its span summary survives in the ring.
	resp, err = http.Get(ts.URL + "/v1/debug/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Recent []recentEntry `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) != 4 {
		t.Fatalf("recent ring has %d entries, want 4", len(out.Recent))
	}
	// Newest first; every entry carries per-stage timings.
	if out.Recent[0].ID != ids[3] || out.Recent[3].ID != ids[0] {
		t.Errorf("ring order wrong: %s...%s, want %s...%s",
			out.Recent[0].ID, out.Recent[3].ID, ids[3], ids[0])
	}
	for _, e := range out.Recent {
		if e.State != jobDone || e.Workload != "histogram" {
			t.Errorf("entry %s: state=%s workload=%s", e.ID, e.State, e.Workload)
		}
		if e.TotalMS <= 0 {
			t.Errorf("entry %s: total_ms = %v", e.ID, e.TotalMS)
		}
		if len(e.StageMS) == 0 {
			t.Errorf("entry %s has no stage timings", e.ID)
		}
	}
}

// recentStageMS sums the stage_ms of every entry of GET /v1/debug/recent.
func recentStageMS(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Recent []recentEntry `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	sum := map[string]float64{}
	for _, e := range out.Recent {
		for stage, ms := range e.StageMS {
			sum[stage] += ms
		}
	}
	return sum
}

// TestStageTimesAgree: /metrics and /v1/debug/recent report one per-stage
// time, on a fresh job, its memo-answered repeat (a memo stage) and a
// coordinator's local fallback (a remote stage with the pipeline's five
// nested in it).
func TestStageTimesAgree(t *testing.T) {
	_, single := newTestServer(t, Config{Workers: 1})
	// Nothing listens on port 1: the coordinator's one hop fails at once.
	_, coord := newTestServer(t, Config{Workers: 1, Peers: []string{"http://127.0.0.1:1"}})
	for _, run := range []struct {
		base   string
		jobs   int
		stages []string // stages the ring must show
	}{
		{single.URL, 2, []string{"profile", "rank", "memo"}},
		{coord.URL, 1, []string{"remote", "profile", "rank"}},
	} {
		for range run.jobs {
			if v := waitJob(t, run.base, postAnalyze(t, run.base, `{"workload":"histogram"}`)); v.State != jobDone {
				t.Fatalf("job %s: %s %s", v.ID, v.State, v.Error)
			}
		}
		ring := recentStageMS(t, run.base)
		for _, stage := range run.stages {
			if _, ok := ring[stage]; !ok {
				t.Errorf("%s: no %s stage in the recent ring %v", run.base, stage, ring)
			}
		}
		metered := map[string]float64{}
		for _, p := range scrape(t, run.base).Points {
			if p.Name == "dp_stage_seconds_total" {
				metered[p.Labels["stage"]] = p.Value * 1000
			}
		}
		for stage := range metered {
			if _, ok := ring[stage]; !ok {
				ring[stage] = 0
			}
		}
		for stage, ms := range ring {
			if math.Abs(ms-metered[stage]) > 1e-6*math.Max(1, ms) {
				t.Errorf("%s: stage %s: recent ring %.6f ms, /metrics %.6f ms", run.base, stage, ms, metered[stage])
			}
		}
	}
}

// TestWorkloadProfileEndpoint checks the pprof export end to end: the
// served bytes are gzip, decode strictly, and the top line agrees with
// an in-process profiler run of the same workload.
func TestWorkloadProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/workloads/histogram/profile?scale=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET profile: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("profile Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not gzipped (% x)", data[:min(len(data), 2)])
	}
	dec := pprofRaw(t, data)
	if dec.SampleType != "instructions/count" {
		t.Errorf("sample type %s, want instructions/count", dec.SampleType)
	}
	if len(dec.Lines) == 0 {
		t.Fatal("profile has no samples")
	}

	// The top line must match an independent profiler run.
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := profiler.Profile(prog.M, profiler.Options{})
	var wantTop int64
	for _, v := range res.Lines {
		if v > wantTop {
			wantTop = v
		}
	}
	if dec.Lines[0].Value != wantTop {
		t.Errorf("top line value %d, want the profiler's hottest line %d",
			dec.Lines[0].Value, wantTop)
	}
	if dec.Lines[0].Loc == "" || dec.Lines[0].Func == "" {
		t.Errorf("top line unresolved: %+v", dec.Lines[0])
	}

	// Error surface.
	for path, want := range map[string]int{
		"/v1/workloads/no-such-workload/profile":    http.StatusNotFound,
		"/v1/workloads/histogram/profile?scale=999": http.StatusBadRequest,
		"/v1/workloads/histogram/profile?scale=x":   http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestRuntimeMetrics checks the dependency-free Go runtime gauges and the
// build-info gauge on /metrics.
func TestRuntimeMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	s := scrape(t, ts.URL)
	if v := mustValue(t, s, "dp_go_goroutines"); v <= 0 {
		t.Errorf("dp_go_goroutines = %v", v)
	}
	if v := mustValue(t, s, "dp_go_heap_alloc_bytes"); v <= 0 {
		t.Errorf("dp_go_heap_alloc_bytes = %v", v)
	}
	if v := mustValue(t, s, "dp_go_gc_pause_seconds_total"); v < 0 {
		t.Errorf("dp_go_gc_pause_seconds_total = %v", v)
	}
	if v := mustValue(t, s, "dp_build_info",
		metrics.L("goversion", runtime.Version())); v != 1 {
		t.Errorf("dp_build_info = %v, want 1", v)
	}
}

// rawProfile is what `go tool pprof -raw` prints of a line profile.
type rawProfile struct {
	SampleType, PeriodType, Period, Time string
	Lines                                []rawLine // in pprof's sample order
}

// rawLine is one sample resolved through its location; Loc is file:line.
type rawLine struct {
	Value     int64
	Func, Loc string
}

// pprofRaw reads an encoded profile with `go tool pprof -raw`, the reader
// scripts/serve-smoke.sh trusts too, so the encoder is checked against
// code that is not ours.
func pprofRaw(t *testing.T, data []byte) rawProfile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "profile.pb.gz")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "tool", "pprof", "-raw", "-symbolize=none", path)
	cmd.Env = append(os.Environ(), "TZ=UTC")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	var p rawProfile
	var ids []string
	locs := map[string]rawLine{}
	section := ""
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		key, val, _ := strings.Cut(line, ": ")
		switch {
		case len(f) == 0:
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
		case key == "PeriodType":
			p.PeriodType = val
		case key == "Period":
			p.Period = val
		case key == "Time":
			p.Time = val
		case section == "Samples:" && p.SampleType == "":
			p.SampleType = line
		case section == "Samples:" && len(f) == 2: // "value: locid"
			v, err := strconv.ParseInt(strings.TrimSuffix(f[0], ":"), 10, 64)
			if err != nil {
				t.Fatalf("pprof sample %q: %v", line, err)
			}
			p.Lines = append(p.Lines, rawLine{Value: v})
			ids = append(ids, f[1])
		case section == "Locations" && len(f) == 6: // "id: 0x0 M=1 func file:line:0 s=0"
			locs[strings.TrimSuffix(f[0], ":")] = rawLine{Func: f[3], Loc: strings.TrimSuffix(f[4], ":0")}
		case section != "Mappings":
			t.Fatalf("unexpected pprof -raw line %q in:\n%s", line, out)
		}
	}
	for i, id := range ids {
		l, ok := locs[id]
		if !ok {
			t.Fatalf("sample %d names location %s, which pprof does not list", i, id)
		}
		p.Lines[i].Func, p.Lines[i].Loc = l.Func, l.Loc
	}
	return p
}
