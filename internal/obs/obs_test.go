package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder("t1")
	root := r.Start("job")
	r.AnnotateSpan(root, "name", "w")
	q := r.AddInterval("queue", time.Now().Add(-time.Millisecond), time.Now(), root)
	a := r.Start("profile")
	r.Annotate("cache_hit", "false")
	b := r.Start("inner")
	r.End(b)
	r.End(a)
	c := r.Start("rank")
	r.End(c)
	r.End(root)
	tr := r.Trace()

	if tr.ID != "t1" {
		t.Fatalf("trace id = %q, want t1", tr.ID)
	}
	if len(tr.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(tr.Spans))
	}
	wantParents := map[string]string{
		"queue": "job", "profile": "job", "inner": "profile", "rank": "job",
	}
	byIdx := tr.Spans
	for _, s := range byIdx {
		if s.Name == "job" {
			if s.Parent != -1 {
				t.Errorf("job parent = %d, want -1", s.Parent)
			}
			continue
		}
		wantParent := wantParents[s.Name]
		if got := byIdx[s.Parent].Name; got != wantParent {
			t.Errorf("%s parent = %s, want %s", s.Name, got, wantParent)
		}
	}
	if byIdx[a].Attrs["cache_hit"] != "false" {
		t.Errorf("profile attrs = %v, want cache_hit=false", byIdx[a].Attrs)
	}
	if byIdx[q].Dur <= 0 {
		t.Errorf("queue interval duration = %d, want > 0", byIdx[q].Dur)
	}
	// Every closed span nests inside its parent's interval.
	for i, s := range byIdx {
		if s.Parent < 0 {
			continue
		}
		p := byIdx[s.Parent]
		if s.Name == "queue" {
			continue // queue wait predates the root's pickup by design
		}
		if s.Start < p.Start || s.End() > p.End() {
			t.Errorf("span %d (%s) [%d,%d] escapes parent %s [%d,%d]",
				i, s.Name, s.Start, s.End(), p.Name, p.Start, p.End())
		}
	}
}

func TestRecorderTraceClosesOpenSpans(t *testing.T) {
	r := NewRecorder("t")
	r.Start("job")
	r.Start("profile") // never ended: the job panicked mid-stage
	tr := r.Trace()
	for _, s := range tr.Spans {
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration %d", s.Name, s.Dur)
		}
	}
}

func TestGraftShiftsWorkerClock(t *testing.T) {
	r := NewRecorder("coord")
	root := r.Start("job")
	hop := r.Start("remote")
	time.Sleep(5 * time.Millisecond) // the hop must outlast the worker's claimed time

	// A worker trace recorded on a clock one hour ahead, claiming 1ms of
	// work inside a ~5ms hop.
	skew := int64(time.Hour)
	now := time.Now().UnixNano()
	worker := []Span{
		{Name: "job", Start: now + skew, Dur: int64(time.Millisecond), Parent: -1},
		{Name: "profile", Start: now + skew, Dur: int64(time.Millisecond / 2), Parent: 0},
	}
	est := r.Graft("http://worker", worker)
	r.End(hop)
	r.End(root)
	tr := r.Trace()

	if est < time.Duration(skew)-time.Second || est > time.Duration(skew)+time.Second {
		t.Errorf("skew estimate %v, want ~1h", est)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tr.Spans))
	}
	wjob, wprof := tr.Spans[2], tr.Spans[3]
	if wjob.Node != "http://worker" || wprof.Node != "http://worker" {
		t.Errorf("grafted spans not stamped with node: %q, %q", wjob.Node, wprof.Node)
	}
	if wjob.Parent != hop {
		t.Errorf("worker root parent = %d, want hop span %d", wjob.Parent, hop)
	}
	if wprof.Parent != 2 {
		t.Errorf("worker profile parent = %d, want remapped root 2", wprof.Parent)
	}
	hopSpan := tr.Spans[hop]
	if wjob.Start < hopSpan.Start || wjob.End() > hopSpan.End() {
		t.Errorf("shifted worker root [%d,%d] escapes hop [%d,%d]",
			wjob.Start, wjob.End(), hopSpan.Start, hopSpan.End())
	}
}

func TestGraftEmptyAndUnparented(t *testing.T) {
	r := NewRecorder("c")
	r.Start("job")
	if est := r.Graft("w", nil); est != 0 {
		t.Errorf("empty graft estimated skew %v", est)
	}
	tr := r.Trace()
	if len(tr.Spans) != 1 {
		t.Fatalf("empty graft added spans: %d", len(tr.Spans))
	}
}

func TestWriteChromeValidNested(t *testing.T) {
	r := NewRecorder("t")
	root := r.Start("job")
	s1 := r.Start("profile")
	time.Sleep(2 * time.Millisecond)
	r.End(s1)
	s2 := r.Start("rank")
	r.End(s2)
	r.End(root)
	tr := r.Trace()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteChrome is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var complete []int
	sawMeta := false
	for i, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			sawMeta = true
			if ev.Args["name"] != "local" {
				t.Errorf("metadata process name = %q, want local", ev.Args["name"])
			}
		case "X":
			complete = append(complete, i)
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %s has negative ts/dur: %v/%v", ev.Name, ev.Ts, ev.Dur)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if !sawMeta {
		t.Error("no process_name metadata event")
	}
	if len(complete) != 3 {
		t.Fatalf("got %d complete events, want 3", len(complete))
	}
	// Relative timestamps are monotone in recording order, and every child
	// interval is contained in the root's.
	job := out.TraceEvents[complete[0]]
	prev := -1.0
	for _, i := range complete {
		ev := out.TraceEvents[i]
		if ev.Ts < prev {
			t.Errorf("timestamps not monotone: %s at %v after %v", ev.Name, ev.Ts, prev)
		}
		prev = ev.Ts
		if ev.Ts+ev.Dur > job.Ts+job.Dur+0.001 {
			t.Errorf("event %s [%v,%v] escapes job [%v,%v]",
				ev.Name, ev.Ts, ev.Ts+ev.Dur, job.Ts, job.Ts+job.Dur)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := NewRecorder("txt")
	root := r.Start("job")
	s := r.Start("profile")
	r.Annotate("cache_hit", "true")
	r.End(s)
	r.End(root)
	var buf bytes.Buffer
	if err := r.Trace().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace txt (2 spans)", "job", "profile", "cache_hit=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("text trace missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "\n    profile") {
		t.Errorf("profile not indented under job:\n%s", out)
	}
}

func TestWriteTextCyclicParents(t *testing.T) {
	tr := &Trace{ID: "bad", Spans: []Span{
		{Name: "a", Parent: 1},
		{Name: "b", Parent: -1},
		{Name: "c", Parent: 0},
	}}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil { // must terminate
		t.Fatal(err)
	}
}

func TestPprofRoundTrip(t *testing.T) {
	samples := []LineSample{
		{File: "kmeans.c", Line: 12, Func: "main", Value: 100},
		{File: "kmeans.c", Line: 30, Func: "assign", Value: 5000},
		{File: "kmeans.c", Line: 30, Func: "assign", Value: 2500}, // merges with above
		{File: "util.c", Line: 4, Func: "dist", Value: 900},
		{File: "util.c", Line: 9, Func: "dist", Value: 0}, // dropped
	}
	data, err := EncodeLineProfile("instructions", "count", samples, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not gzipped (leading bytes % x)", data[:2])
	}
	got := pprofRaw(t, data)
	if got.SampleType != "instructions/count" || got.PeriodType != "instructions count" {
		t.Errorf("sample/period type = %s, %s; want instructions/count", got.SampleType, got.PeriodType)
	}
	if got.Time != "1970-01-01 00:00:00.000000042 +0000 UTC" || got.Period != "1" {
		t.Errorf("time/period = %s/%s, want 42 ns/1", got.Time, got.Period)
	}
	want := []rawLine{
		{Value: 7500, Func: "assign", Loc: "kmeans.c:30"},
		{Value: 900, Func: "dist", Loc: "util.c:4"},
		{Value: 100, Func: "main", Loc: "kmeans.c:12"},
	}
	if len(got.Lines) != len(want) {
		t.Fatalf("decoded %d lines, want %d: %+v", len(got.Lines), len(want), got.Lines)
	}
	for i, w := range want {
		if got.Lines[i] != w {
			t.Errorf("line %d = %+v, want %+v", i, got.Lines[i], w)
		}
	}
}

func TestPprofDeterministic(t *testing.T) {
	samples := []LineSample{
		{File: "a.c", Line: 1, Func: "f", Value: 7},
		{File: "b.c", Line: 2, Func: "g", Value: 7},
		{File: "a.c", Line: 3, Func: "f", Value: 7},
	}
	first, err := EncodeLineProfile("instructions", "count", samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := EncodeLineProfile("instructions", "count", samples, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("same input encoded to different bytes")
		}
	}
}

func TestPprofRejectsEmptyType(t *testing.T) {
	if _, err := EncodeLineProfile("", "count", nil, 0); err == nil {
		t.Error("empty sample type accepted")
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
