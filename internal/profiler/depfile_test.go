package profiler

import (
	"strings"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// TestDepFileRoundTrip: writing a result to the Figure 2.1 format and
// parsing it back preserves the dependence set at file granularity.
func TestDepFileRoundTrip(t *testing.T) {
	for _, name := range []string{"kmeans", "tinyjpeg", "EP"} {
		prog := workloads.MustBuild(name, 1)
		res := Profile(prog.M, Options{Store: StorePerfect})
		var sb strings.Builder
		res.WriteDepFile(&sb, false)
		df, err := ParseDepFile(sb.String())
		if err != nil {
			t.Fatalf("%s: parse error: %v", name, err)
		}
		want := CoarseSet(res.Deps, res.VarName)
		got := CoarseSet(df.Deps, func(id int32) string {
			if id < 0 || int(id) >= len(df.Vars) {
				return "*"
			}
			return df.Vars[id]
		})
		for k := range want {
			if !got[k] {
				t.Errorf("%s: dependence lost in round trip: %s", name, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s: dependence invented by round trip: %s", name, k)
			}
		}
	}
}

// TestDepFileRoundTripMT round-trips the multi-threaded format (Fig 2.3).
func TestDepFileRoundTripMT(t *testing.T) {
	prog := workloads.MustBuild("rgbyuv-mt", 1)
	res := Profile(prog.M, Options{Store: StorePerfect, MT: true, Workers: 2})
	var sb strings.Builder
	res.WriteDepFile(&sb, true)
	df, err := ParseDepFile(sb.String())
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	// Thread IDs must survive.
	foundThreaded := false
	for d := range df.Deps {
		if d.Type != INIT && d.SinkThr >= 0 && d.SrcThr >= 0 {
			foundThreaded = true
		}
	}
	if !foundThreaded {
		t.Fatal("no thread-attributed dependences parsed")
	}
}

// TestDepFileMTByteDeterministic: two profiles of one multi-threaded target
// write the same bytes. Sinks of one location on different threads, and
// dependences differing only in source thread or race flag, used to come
// out in map order.
func TestDepFileMTByteDeterministic(t *testing.T) {
	for _, name := range []string{"md5-mt", "kmeans-mt", "c-ray-mt"} {
		var runs [2]strings.Builder
		for i := range runs {
			res := Profile(workloads.MustBuild(name, 1).M, Options{MT: true, Workers: 4})
			res.WriteDepFile(&runs[i], true)
		}
		if runs[0].String() != runs[1].String() {
			t.Errorf("%s: two -mt dependence files differ", name)
		}
	}
}

// TestDepFileLoopMarkers: BGN/END markers carry iteration counts.
func TestDepFileLoopMarkers(t *testing.T) {
	prog := workloads.MustBuild("MG", 1)
	res := Profile(prog.M, Options{Store: StorePerfect})
	var sb strings.Builder
	res.WriteDepFile(&sb, false)
	df, err := ParseDepFile(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(df.LoopEnds) == 0 {
		t.Fatal("no loop END markers parsed")
	}
	total := int64(0)
	for _, it := range df.LoopEnds {
		total += it
	}
	if total == 0 {
		t.Fatal("all parsed loops have zero iterations")
	}
}

func TestParseDepFileErrors(t *testing.T) {
	cases := []string{
		"1:60 XYZ {RAW 1:1|x}",
		"1:60 NOM {QQQ 1:1|x}",
		"nonsense NOM {RAW 1:1|x}",
		"1:60 NOM {RAW 1:1|x",
		"1:60 NOM {RAW broken|x}",
		"1:4294967297 NOM {RAW 1:1|x}", // used to read as 1:1
		"1:60 NOM {RAW 4294967297:1|x}",
		"1:5|70000 NOM {RAW 1:1|x}", // used to read as sink thread 4464
		"1:5 NOM {RAW 1:1|70000|x}", // and as source thread 4464
	}
	for _, c := range cases {
		if _, err := ParseDepFile(c); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestParseDepFileSample(t *testing.T) {
	// The exact fragment of Figure 2.1 (abridged).
	sample := `1:60 BGN loop
1:60 NOM {RAW 1:60|i} {WAR 1:60|i} {INIT *}
1:63 NOM {RAW 1:59|temp1} {RAW 1:67|temp1}
1:74 NOM {RAW 1:41|block}
1:74 END loop 1200
`
	df, err := ParseDepFile(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(df.Deps) != 6 {
		t.Fatalf("parsed %d deps, want 6", len(df.Deps))
	}
	if it := df.LoopEnds[ir.Loc{File: 1, Line: 74}]; it != 1200 {
		t.Fatalf("loop iterations = %d, want 1200", it)
	}
	names := map[string]bool{}
	for _, v := range df.Vars {
		names[v] = true
	}
	if !names["i"] || !names["temp1"] || !names["block"] {
		t.Fatalf("variables not interned: %v", df.Vars)
	}
}

// TestParseDepFileWorkloadSeparators: multi-workload dp-profile output
// carries "=== name ===" separators, which the parser must skip.
func TestParseDepFileWorkloadSeparators(t *testing.T) {
	sample := `=== alpha ===
1:60 NOM {RAW 1:60|i} {INIT *}
=== beta ===
1:74 NOM {RAW 1:41|block}
`
	df, err := ParseDepFile(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(df.Deps) != 3 {
		t.Fatalf("parsed %d deps, want 3", len(df.Deps))
	}
}
