package workloads

import (
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
)

// TestAllWorkloadsBuildAndRun smoke-tests every registered workload at two
// scales: modules must build, execute to completion, and perform a
// non-trivial amount of work.
func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, name := range Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, scale := range []int{1, 2} {
				prog := MustBuild(name, scale)
				if prog.Name != name {
					t.Errorf("name = %q, want %q", prog.Name, name)
				}
				if prog.M.Main == nil {
					t.Fatal("no main function")
				}
				in := interp.New(prog.M, nil)
				instrs := in.Run()
				if instrs < 100 {
					t.Errorf("scale %d: only %d statements executed", scale, instrs)
				}
			}
		})
	}
}

// TestWorkloadsDeterministic: two builds of the same workload execute the
// same number of statements (the random source is seeded per run).
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"EP", "c-ray", "fib", "facedetection", "gzip"} {
		a := MustBuild(name, 1)
		b := MustBuild(name, 1)
		na := interp.New(a.M, nil).Run()
		nb := interp.New(b.M, nil).Run()
		if na != nb {
			t.Errorf("%s: nondeterministic instruction counts %d vs %d", name, na, nb)
		}
	}
}

// TestTruthRegionsBelongToModule: ground-truth regions must be regions of
// the built module, and loops must really be loops.
func TestTruthRegionsBelongToModule(t *testing.T) {
	for _, name := range Names("") {
		prog := MustBuild(name, 1)
		inModule := map[*ir.Region]bool{}
		for _, r := range prog.M.Regions {
			inModule[r] = true
		}
		check := func(rs []*ir.Region, label string) {
			for _, r := range rs {
				if !inModule[r] {
					t.Errorf("%s: %s region %v not in module", name, label, r)
				}
				if r.Kind != ir.RLoop {
					t.Errorf("%s: %s region %v is not a loop", name, label, r)
				}
			}
		}
		check(prog.Truth.DOALL, "DOALL")
		check(prog.Truth.DOACROSS, "DOACROSS")
		check(prog.Truth.Seq, "Seq")
		if prog.Truth.Hot != nil && !inModule[prog.Truth.Hot] {
			t.Errorf("%s: hot region not in module", name)
		}
	}
}

// TestTruthDisjoint: a loop must not be in two truth classes at once.
func TestTruthDisjoint(t *testing.T) {
	for _, name := range Names("") {
		prog := MustBuild(name, 1)
		seen := map[*ir.Region]string{}
		add := func(rs []*ir.Region, label string) {
			for _, r := range rs {
				if prev, dup := seen[r]; dup {
					t.Errorf("%s: loop %v in both %s and %s", name, r, prev, label)
				}
				seen[r] = label
			}
		}
		add(prog.Truth.DOALL, "DOALL")
		add(prog.Truth.DOACROSS, "DOACROSS")
		add(prog.Truth.Seq, "Seq")
	}
}

// TestSuiteRosters: the suites used by the experiments must contain their
// expected members.
func TestSuiteRosters(t *testing.T) {
	cases := map[string][]string{
		"NAS":          {"EP", "CG", "FT", "IS", "MG", "LU", "SP", "BT"},
		"Starbench":    {"c-ray", "kmeans", "md5", "rgbyuv", "rotate", "rot-cc", "tinyjpeg", "bodytrack", "h264dec"},
		"BOTS":         {"fib", "nqueens", "sort", "fft", "strassen", "sparselu", "health", "floorplan", "alignment", "uts"},
		"MPMD":         {"facedetection", "libvorbis", "ferret", "dedup"},
		"compressor":   {"gzip", "bzip2"},
		"Starbench-MT": {"md5-mt", "kmeans-mt"},
		"textbook":     {"histogram", "mandelbrot", "matmul", "montecarlo-pi", "nbody", "prefix-sum"},
	}
	for suite, members := range cases {
		have := map[string]bool{}
		for _, n := range Names(suite) {
			have[n] = true
		}
		for _, m := range members {
			if !have[m] {
				t.Errorf("suite %s missing %s", suite, m)
			}
		}
	}
}

// TestScaleGrowsWork: scale 2 must execute more statements than scale 1.
func TestScaleGrowsWork(t *testing.T) {
	for _, name := range []string{"EP", "kmeans", "gzip"} {
		n1 := interp.New(MustBuild(name, 1).M, nil).Run()
		n2 := interp.New(MustBuild(name, 2).M, nil).Run()
		if n2 <= n1 {
			t.Errorf("%s: scale 2 (%d) not larger than scale 1 (%d)", name, n2, n1)
		}
	}
}

// TestMTWorkloadsSpawnThreads: the Starbench-MT programs must actually
// run multi-threaded.
func TestMTWorkloadsSpawnThreads(t *testing.T) {
	for _, name := range Names("Starbench-MT") {
		prog := MustBuild(name, 1)
		tr := &threadCounter{}
		interp.New(prog.M, tr).Run()
		if tr.started < 4 {
			t.Errorf("%s: only %d threads started, want 4 workers", name, tr.started)
		}
	}
}

type threadCounter struct {
	started int
}

func (tc *threadCounter) ProcessBatch(_ *ir.Module, evs []interp.Ev) {
	for i := range evs {
		// B is the parent thread: -1 for main.
		if ev := &evs[i]; ev.Kind() == interp.EvThreadStart && ev.B >= 0 {
			tc.started++
		}
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	if _, err := Build("no-such-benchmark", 1); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestListMatchesNames(t *testing.T) {
	all := List("")
	names := Names("")
	if len(all) != len(names) {
		t.Fatalf("List has %d entries, Names has %d", len(all), len(names))
	}
	for i, info := range all {
		if info.Name != names[i] {
			t.Errorf("List[%d].Name = %q, Names[%d] = %q", i, info.Name, i, names[i])
		}
		if info.Suite == "" {
			t.Errorf("%s: empty suite", info.Name)
		}
	}
	for _, suite := range Suites() {
		sub := List(suite)
		if len(sub) == 0 {
			t.Errorf("suite %q: empty List", suite)
		}
		for _, info := range sub {
			if info.Suite != suite {
				t.Errorf("List(%q) returned %+v", suite, info)
			}
		}
	}
}
