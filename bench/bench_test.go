package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLineMetrics parses a result line the way the driver does and
// returns name -> unit.
func lastLineMetrics(t *testing.T, line string) map[string]string {
	t.Helper()
	var out struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("result line is not the contract's JSON object: %v\n%s", err, line)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("smoke run: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	units := map[string]string{}
	for name, m := range out.Metrics {
		units[name] = m.Unit
	}
	return units
}

// TestSmokeRunMatchesBenchmarkJSON runs an in-process workload and the
// service path at tiny sizes in both modes and checks what they emit
// against BENCHMARK.json, in both directions. The service path is
// fleet_hop untraced (requests through the coordinator) and serve_mixed
// traced (which also sends its extra jobs through one), so every branch of
// the service code runs.
func TestSmokeRunMatchesBenchmarkJSON(t *testing.T) {
	t.Chdir("..") // the benchmark runs from the root of the checkout
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, workloadNames)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if _, ok := want[false]["setup_s"]; !ok {
		t.Error("BENCHMARK.json has no setup_s")
	}

	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	for _, run := range []struct {
		workload string
		trace    bool
	}{{"solo_large", false}, {"solo_large", true}, {"fleet_hop", false}, {"serve_mixed", true}} {
		trace := run.trace
		cfg := runConfig{workload: run.workload, seed: 3, seconds: 0.3, trace: trace, sz: tinySizing,
			outDir: filepath.Join(build, "out"), buildDir: build, exp: exp}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", run.workload, trace, err)
		}
		for _, p := range res.Problems {
			t.Errorf("%s trace=%v: %s", run.workload, trace, p)
		}
		line, err := res.resultLine()
		if err != nil {
			t.Fatalf("%s trace=%v: %v", run.workload, trace, err)
		}
		got := lastLineMetrics(t, line)
		for name, unit := range got {
			if !nameRE.MatchString(name) {
				t.Errorf("emitted metric name %q is not made of letters, digits, _ . -", name)
			}
			if w, ok := want[trace][name]; !ok {
				t.Errorf("%s trace=%v emits %s, which BENCHMARK.json does not list", run.workload, trace, name)
			} else if w != unit {
				t.Errorf("%s: emitted unit %q, BENCHMARK.json says %q", name, unit, w)
			}
		}
		for name := range want[trace] {
			if _, ok := got[name]; !ok {
				t.Errorf("BENCHMARK.json lists %s, which a %s trace=%v run does not emit", name, run.workload, trace)
			}
		}
		if !trace {
			for name := range want[false] {
				if res.Metrics[name] == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", run.workload, name)
				}
			}
		}
		if trace {
			tracePath := filepath.Join(cfg.outDir, "trace-"+run.workload+"-seed3.json")
			var chrome struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			b, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("%s is not a Chrome trace with events: %v", tracePath, err)
			}
		}
	}
}

// TestScheduleIsAFunctionOfTheSeed pins the generator's contract: the same
// seed yields byte-identical request schedules, another seed does not.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	schedule := func(seed int64) []byte {
		tr, err := newTraffic(seed, tinySizing)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for c := 0; c < tinySizing.clients; c++ {
			for _, r := range tr.warmup(c, tinySizing.clients) {
				buf.Write(r.Body)
			}
			s := tr.stream(c)
			for i := 0; i < 300; i++ {
				r := s.next()
				buf.WriteString(r.Key)
				buf.Write(r.Body)
			}
		}
		return buf.Bytes()
	}
	a, b, c := schedule(11), schedule(11), schedule(12)
	if !bytes.Equal(a, b) {
		t.Error("two schedules from seed 11 differ")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 11 and 12 yield the same schedule")
	}
}

// TestGeneratedLabelsHold analyses generated modules in-process and checks
// every loop's label by construction against what discovery reports.
func TestGeneratedLabelsHold(t *testing.T) {
	tr, err := newTraffic(5, sizing{poolSize: 40, maxKernels: 4, minN: 256, maxN: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.pool {
		j := &analysisJob{Name: e.Gen.Name, Mod: e.Gen.Mod, Loops: e.Gen.Loops}
		out, _ := analyzeLayers(&spanLog{}, -1, j)
		if m, l := matchLoops(j.Loops, out.Kinds); m != l {
			t.Errorf("%s %v: %d of %d labelled loops match; labels %v, reported %v",
				e.Gen.Name, e.Gen.Kernels, m, l, j.Loops, out.Kinds)
		}
		if instrs, acc := e.counts(); instrs != out.Instrs || acc != out.Accesses {
			t.Errorf("%s: counting run saw %d instrs %d accesses, the profile %d and %d",
				e.Gen.Name, instrs, acc, out.Instrs, out.Accesses)
		}
	}
}

func TestCompareFlagsABreach(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"},{"name":"idle"}],"end_to_end":[
		{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	type side struct {
		workload  string
		seed      int64
		trace     bool
		lat, rate float64
		failed    int
	}
	write := func(name string, sd side) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			err := appendResult(path, &runResult{Workload: sd.workload, Seed: sd.seed + int64(i), Trace: sd.trace, Failed: sd.failed,
				Metrics: map[string]float64{"lat_ms": sd.lat + float64(i), "rate": sd.rate}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", side{"w", 1, false, 100, 50, 0})
	for _, tc := range []struct {
		name     string
		b        side
		breaches int
	}{
		{"same", side{"w", 1, false, 100, 50, 0}, 0},
		{"within", side{"w", 1, false, 108, 46, 0}, 0},
		{"slower", side{"w", 1, false, 115, 50, 0}, 1},
		{"lower-rate", side{"w", 1, false, 100, 40, 0}, 1},
		{"better", side{"w", 1, false, 50, 100, 0}, 0},
		{"failed", side{"w", 1, false, 100, 50, 1}, 1},
		{"other-seeds", side{"w", 7, false, 100, 50, 0}, 1},
		{"zero", side{"w", 1, false, 100, 0, 0}, 1},
		{"traced-only", side{"w", 1, true, 100, 50, 0}, 2}, // w has nothing to compare, and nothing else was
		{"other-workload", side{"idle", 1, false, 100, 50, 0}, 3},
	} {
		var out bytes.Buffer
		n, err := compareFiles(spec, base, write(tc.name+".json", tc.b), &out)
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", tc.name, n, tc.breaches, out.String())
		}
	}
}
