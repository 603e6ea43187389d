package comm

import (
	"reflect"
	"strings"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

func mkDep(src, dst int16, n int64, deps map[profiler.Dep]int64) {
	d := profiler.Dep{
		Sink:    ir.Loc{File: 1, Line: int32(10 + dst)},
		Source:  ir.Loc{File: 1, Line: int32(20 + src)},
		Type:    profiler.RAW,
		SinkThr: dst,
		SrcThr:  src,
	}
	deps[d] += n
}

func matrixFrom(deps map[profiler.Dep]int64) *Matrix {
	return FromProfile(&profiler.Result{Deps: deps})
}

func TestMatrixCounts(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	mkDep(0, 1, 5, deps)
	mkDep(1, 0, 3, deps)
	mkDep(2, 2, 7, deps)
	m := matrixFrom(deps)
	if m.Threads != 3 {
		t.Fatalf("threads = %d, want 3", m.Threads)
	}
	if want := [][]int64{{0, 5, 0}, {3, 0, 0}, {0, 0, 7}}; !reflect.DeepEqual(m.Counts, want) {
		t.Fatalf("counts wrong: %v", m.Counts)
	}
	if m.CrossThread() != 8 {
		t.Fatalf("cross = %d, want 8", m.CrossThread())
	}
}

func TestClassifyPipeline(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	for i := int16(0); i < 3; i++ {
		mkDep(i, i+1, 100, deps)
	}
	m := matrixFrom(deps)
	if got := m.Classify(); got != PatternPipeline && got != PatternMaster {
		t.Fatalf("band matrix classified %v", got)
	}
}

func TestClassifyMaster(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	for w := int16(1); w < 6; w++ {
		mkDep(0, w, 100, deps) // thread 0 feeds everyone
	}
	m := matrixFrom(deps)
	if got := m.Classify(); got != PatternMaster {
		t.Fatalf("master matrix classified %v", got)
	}
}

func TestClassifyAllToAll(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	for a := int16(0); a < 4; a++ {
		for b := int16(0); b < 4; b++ {
			if a != b {
				mkDep(a, b, 10, deps)
			}
		}
	}
	m := matrixFrom(deps)
	if got := m.Classify(); got != PatternAllToAll {
		t.Fatalf("dense matrix classified %v", got)
	}
}

func TestClassifyNone(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	mkDep(1, 1, 50, deps)
	m := matrixFrom(deps)
	if got := m.Classify(); got != PatternNone {
		t.Fatalf("diagonal matrix classified %v", got)
	}
}

func TestRender(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	mkDep(0, 1, 100, deps)
	mkDep(1, 0, 1, deps)
	m := matrixFrom(deps)
	out := m.Render()
	if !strings.Contains(out, "pattern:") {
		t.Fatalf("render lacks pattern line:\n%s", out)
	}
	if !strings.Contains(out, "T0") || !strings.Contains(out, "T1") {
		t.Fatalf("render lacks thread rows:\n%s", out)
	}
	// The heavy cell must render darker than the light cell.
	if !strings.ContainsAny(out, "@%#") {
		t.Fatalf("no dark shade for dominant cell:\n%s", out)
	}
}

// TestRealMTWorkloadPattern: the fork-join Starbench-MT programs show the
// master-worker communication shape (main initializes, workers read).
func TestRealMTWorkloadPattern(t *testing.T) {
	prog := workloads.MustBuild("rgbyuv-mt", 1)
	res := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect, MT: true, Workers: 4})
	m := FromProfile(res)
	if m.CrossThread() == 0 {
		t.Fatal("no cross-thread communication in MT workload")
	}
	// Thread 0 (main) produced the input array every worker reads: row 0
	// must dominate.
	var row0, rest int64
	for j := 0; j < m.Threads; j++ {
		if j != 0 {
			row0 += m.Counts[0][j]
		}
	}
	for i := 1; i < m.Threads; i++ {
		for j := 0; j < m.Threads; j++ {
			if i != j {
				rest += m.Counts[i][j]
			}
		}
	}
	if row0 == 0 {
		t.Fatal("main thread shows no communication to workers")
	}
	_ = rest
}

func TestIgnoresNonRAW(t *testing.T) {
	deps := map[profiler.Dep]int64{}
	d := profiler.Dep{Type: profiler.WAR, SinkThr: 1, SrcThr: 0,
		Sink: ir.Loc{File: 1, Line: 1}, Source: ir.Loc{File: 1, Line: 2}}
	deps[d] = 100
	m := matrixFrom(deps)
	if m.CrossThread() != 0 {
		t.Fatal("WAR dependences counted as communication")
	}
}
