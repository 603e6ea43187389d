package profiler

import (
	"strings"
	"testing"

	"discopop/internal/bytecode"
	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/sig"
	"discopop/internal/workloads"
)

// TestLifetimeAnalysisPreventsFalseDeps: two functions called in sequence
// reuse the same stack addresses for their locals; without variable
// lifetime analysis (Section 2.3.5), the second function's accesses would
// build false dependences against the first's dead variables.
func TestLifetimeAnalysisPreventsFalseDeps(t *testing.T) {
	b := ir.NewBuilder("lifetime")
	out := b.Global("out", ir.F64)
	f1 := b.Func("first")
	x1 := f1.Local("x1", ir.F64)
	f1.Set(x1, ir.CF(1))
	f1.Set(out, ir.Add(ir.V(out), ir.V(x1)))
	fd1 := f1.Done()
	f2 := b.Func("second")
	x2 := f2.Local("x2", ir.F64)
	f2.Set(x2, ir.CF(2))
	f2.Set(out, ir.Add(ir.V(out), ir.V(x2)))
	fd2 := f2.Done()
	mb := b.Func("main")
	mb.Call(fd1)
	mb.Call(fd2)
	m := b.Build(mb.Done())
	res := Profile(m, Options{Store: StorePerfect})
	for d := range res.Deps {
		if d.Type == INIT {
			continue
		}
		// No dependence may connect x1's line to x2's line: they are
		// different variables that merely share a reused address.
		v := res.VarName(d.Var)
		if (v == "x1" && d.Sink.Line >= fd2.Loc.Line) ||
			(v == "x2" && d.Source.Line < fd2.Loc.Line && d.Source.Line > 0 &&
				d.Source.Line < fd1.EndLoc.Line && d.Type != INIT && d.Sink.Line >= fd2.Loc.Line && d.Source.Line <= fd1.EndLoc.Line && d.Source.Line >= fd1.Loc.Line) {
			t.Errorf("false cross-function dependence: %+v (%s)", d, v)
		}
	}
	// Specifically: x2's first write must be an INIT, not a WAW against
	// x1's dead store.
	foundInit := false
	for d := range res.Deps {
		if d.Type == INIT && d.Sink.Line > fd2.Loc.Line && d.Sink.Line < fd2.EndLoc.Line {
			foundInit = true
		}
	}
	if !foundInit {
		t.Error("x2's first write not recorded as INIT: stale state survived FreeVar")
	}
}

// TestHeapFreeRemovesState: a heap buffer freed and reallocated must not
// leak dependences between its two lives.
func TestHeapFreeRemovesState(t *testing.T) {
	b := ir.NewBuilder("heaplife")
	f := b.Func("use")
	buf := f.HeapArray("buf", ir.F64, 8)
	f.SetAt(buf, ir.CI(3), ir.CF(1))
	f.Free(buf)
	fd := f.Done()
	mb := b.Func("main")
	mb.Call(fd)
	mb.Call(fd)
	m := b.Build(mb.Done())
	res := Profile(m, Options{Store: StorePerfect})
	for d := range res.Deps {
		if d.Type == WAW && res.VarName(d.Var) == "buf" {
			t.Errorf("WAW across heap lifetimes: %+v", d)
		}
	}
}

// TestRaceFlagging feeds the engine a manually reversed access pair — the
// Figure 2.4(b) situation: a worker observes a load whose timestamp
// precedes the already-recorded store's, proving the two accesses were
// not mutually exclusive — and expects the dependence flagged Reversed.
func TestRaceFlagging(t *testing.T) {
	e := newEngine[sig.Perfect](&Profiler{tab: &ctxTable{}, opt: Options{MT: true}}, sig.MakePerfect())
	loc1 := ir.Loc{File: 1, Line: 5}
	loc2 := ir.Loc{File: 1, Line: 9}
	e.consume([]rec{
		{addr: 100, info: bytecode.PackSink(loc1, 1) | bytecode.SinkThread(2) | uint64(recStore), ts: 20, op: 1, ctx: -1},
		{addr: 100, info: bytecode.PackSink(loc2, 1) | bytecode.SinkThread(3) | uint64(recLoad), ts: 10, op: 2, ctx: -1},
	})
	found := false
	deps := mergeDepTables([]*depTable{&e.deps})
	for d := range deps {
		if d.Type == RAW && d.Reversed {
			found = true
		}
	}
	if !found {
		t.Fatalf("reversed access pair not flagged as potential race: %v", deps)
	}
}

// TestParallelMatchesSerialAllWorkloads is the central correctness
// property of the Figure 2.2 design, checked over every sequential
// workload and several worker counts.
func TestParallelMatchesSerialAllWorkloads(t *testing.T) {
	suites := []string{"NAS", "Starbench", "textbook", "compressor"}
	for _, suite := range suites {
		for _, name := range workloads.Names(suite) {
			name := name
			t.Run(name, func(t *testing.T) {
				prog := workloads.MustBuild(name, 1)
				serial := Profile(prog.M, Options{Store: StorePerfect})
				for _, w := range []int{3, 8} {
					prog2 := workloads.MustBuild(name, 1)
					par := Profile(prog2.M, Options{Store: StorePerfect, Workers: w, ChunkSize: 64})
					fp, fn := DiffDeps(par.Deps, serial.Deps)
					if len(fp) != 0 || len(fn) != 0 {
						t.Errorf("workers=%d: fp=%d fn=%d (first fp=%v fn=%v)",
							w, len(fp), len(fn), first(fp), first(fn))
					}
				}
			})
		}
	}
}

func first(ds []Dep) any {
	if len(ds) == 0 {
		return nil
	}
	return ds[0]
}

// TestLockBasedMatchesLockFree: the queue implementation must not change
// results, only performance (Figure 2.9's comparison).
func TestLockBasedMatchesLockFree(t *testing.T) {
	prog := workloads.MustBuild("IS", 1)
	free := Profile(prog.M, Options{Store: StorePerfect, Workers: 4})
	prog2 := workloads.MustBuild("IS", 1)
	locked := Profile(prog2.M, Options{Store: StorePerfect, Workers: 4, UseLocked: true})
	fp, fn := DiffDeps(locked.Deps, free.Deps)
	if len(fp) != 0 || len(fn) != 0 {
		t.Fatalf("lock-based queues changed results: fp=%d fn=%d", len(fp), len(fn))
	}
}

// TestRedistribution drives the load balancer with a hot-address workload
// and verifies results are unchanged and migrations occurred.
func TestRedistribution(t *testing.T) {
	serial := Profile(hotAddressModule(), Options{Store: StorePerfect})
	m2 := hotAddressModule()
	p := New(m2, Options{Store: StorePerfect, Workers: 4, ChunkSize: 32, rebalanceInterval: 50})
	in := interp.New(m2, p)
	in.Run()
	par := p.Result()
	fp, fn := DiffDeps(par.Deps, serial.Deps)
	if len(fp) != 0 || len(fn) != 0 {
		t.Fatalf("redistribution corrupted dependences: fp=%d fn=%d", len(fp), len(fn))
	}
	if p.pipe.rebalanceCount() == 0 {
		t.Log("note: no redistribution triggered (acceptable but unexpected)")
	}
}

// TestMTProfilingLockedProgram: a properly locked multi-threaded target
// must produce a race-free, deterministic dependence set through the worker
// pipeline, including cross-thread dependences on the shared accumulator.
func TestMTProfilingLockedProgram(t *testing.T) {
	prog := workloads.MustBuild("kmeans-mt", 1)
	res := Profile(prog.M, Options{Store: StorePerfect, MT: true, Workers: 4})
	cross := 0
	for d := range res.Deps {
		if d.Type == RAW && d.SinkThr >= 0 && d.SrcThr >= 0 && d.SinkThr != d.SrcThr {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("no cross-thread RAW dependences found in MT program")
	}
	// Thread IDs must be recorded on MT dependences.
	for d := range res.Deps {
		if d.Type != INIT && (d.SinkThr < 0 || d.SrcThr < 0) {
			t.Fatalf("MT dependence lacks thread IDs: %+v", d)
		}
	}
}

// TestMTDepFileFormat: thread IDs are rendered per Figure 2.3.
func TestMTDepFileFormat(t *testing.T) {
	prog := workloads.MustBuild("rgbyuv-mt", 1)
	res := Profile(prog.M, Options{Store: StorePerfect, MT: true, Workers: 2})
	var sb strings.Builder
	res.WriteDepFile(&sb, true)
	out := sb.String()
	if !strings.Contains(out, "|") {
		t.Fatalf("MT dep file lacks thread-ID separators:\n%.300s", out)
	}
}

// TestSignatureFPRDecreasesWithSlots: the Table 2.6 trend.
func TestSignatureFPRDecreasesWithSlots(t *testing.T) {
	prog := workloads.MustBuild("rotate", 1)
	exact := Profile(prog.M, Options{Store: StorePerfect})
	var bads []int
	for _, slots := range []int{1 << 8, 1 << 14, 1 << 22} {
		prog2 := workloads.MustBuild("rotate", 1)
		approx := Profile(prog2.M, Options{Store: StoreSignature, Slots: slots})
		fp, fn := DiffDeps(approx.Deps, exact.Deps)
		bads = append(bads, len(fp)+len(fn))
	}
	// Table 2.6's trend: error falls sharply as slots grow (the paper's
	// rotate goes 55.9% -> 4.5% -> 0.0%). Residual collisions at the
	// largest size follow the birthday bound (n^2/2m colliding address
	// pairs), so we assert a strong decrease rather than exact zero.
	if !(bads[2] <= bads[1] && bads[1] <= bads[0]) {
		t.Fatalf("error not monotonically decreasing with slots: %v", bads)
	}
	if bads[0] > 0 && bads[2]*2 > bads[0] {
		t.Fatalf("largest signature (%d wrong) not substantially better than smallest (%d)",
			bads[2], bads[0])
	}
}

// TestSkipStatsAccounting: skipped counts never exceed totals, and the
// would-be type counts are consistent.
func TestSkipStatsAccounting(t *testing.T) {
	for _, name := range []string{"EP", "md5", "FT"} {
		prog := workloads.MustBuild(name, 1)
		res := Profile(prog.M, Options{Store: StorePerfect, Skip: true})
		s := res.Skip
		if s.SkippedReads > s.Reads || s.SkippedWrite > s.Writes {
			t.Errorf("%s: skipped exceeds total: %+v", name, s)
		}
		if s.SkippedDepReads > s.SkippedReads || s.SkippedDepWrite > s.SkippedWrite {
			t.Errorf("%s: dep-skipped exceeds skipped: %+v", name, s)
		}
		if s.WouldRAW != s.SkippedDepReads {
			t.Errorf("%s: WouldRAW (%d) != SkippedDepReads (%d)", name, s.WouldRAW, s.SkippedDepReads)
		}
	}
}

// TestSkipStatsGolden pins the skip path counter by counter: the twelve
// SkipStats counters and the number of merged dependences of the seven
// solo_variants programs of the benchmark (and LU) under the exact store with
// skipping, serially (batchSerial → loadSkip/storeSkip) and through the
// worker pipeline (consume; per-operation skip state is per worker there, so
// the skipped counts differ from the serial ones). Recorded at the commit
// before engine.load(*rec)/store(*rec) became loadSkip/storeSkip: a rewrite
// of the conditions that skips one access more or fewer shows here.
// (Unkeyed SkipStats literals on purpose: a thirteenth counter must be added
// here too.)
func TestSkipStatsGolden(t *testing.T) {
	golden := []struct {
		name     string
		scale    int
		deps     int
		serial   SkipStats // Reads, Writes, SkippedReads, SkippedWrite, DepReads, DepWrites,
		workers2 SkipStats // SkippedDepReads, SkippedDepWrite, WouldRAW, WouldWAR, WouldWAW, ShadowSkips
	}{
		{"CG", 8, 98,
			SkipStats{842281, 238121, 519479, 161224, 842281, 213789, 519479, 161224, 519479, 161224, 0, 0},
			SkipStats{842281, 238121, 519479, 161224, 842281, 213789, 519479, 161224, 519479, 161224, 0, 0}},
		{"IS", 8, 46,
			SkipStats{512638, 224259, 385529, 128643, 512638, 160189, 385529, 128643, 385529, 128643, 0, 0},
			SkipStats{512638, 224259, 386463, 129110, 512638, 160189, 386463, 129110, 386463, 129110, 0, 0}},
		{"kmeans", 4, 110,
			SkipStats{1090093, 415432, 753799, 276859, 1090093, 410596, 753799, 276859, 753799, 276855, 33928, 0},
			SkipStats{1090093, 415432, 756413, 279473, 1090093, 410596, 756413, 279473, 756413, 279469, 33928, 0}},
		{"facedetection", 8, 114,
			SkipStats{669986, 250722, 413714, 172661, 669473, 249660, 413714, 172568, 413714, 172568, 0, 0},
			SkipStats{669986, 250722, 423026, 172661, 669473, 249660, 422930, 172568, 422930, 172568, 0, 0}},
		{"FT", 8, 76,
			SkipStats{283050, 98595, 229606, 67716, 283050, 94425, 229606, 67716, 229606, 67655, 61, 0},
			SkipStats{283050, 98595, 229606, 67716, 283050, 94425, 229606, 67716, 229606, 67655, 61, 0}},
		{"histogram", 8, 47,
			SkipStats{240453, 120198, 193124, 72888, 240453, 96159, 193124, 72888, 193124, 72888, 0, 0},
			SkipStats{240453, 120198, 193897, 73661, 240453, 96159, 193897, 73661, 193897, 73661, 0, 0}},
		{"rotate", 8, 15,
			SkipStats{192002, 96002, 167988, 47996, 192002, 48000, 167988, 47996, 167988, 47996, 0, 0},
			SkipStats{192002, 96002, 167988, 47996, 192002, 48000, 167988, 47996, 167988, 47996, 0, 0}},
		// None of the seven takes the shadow-update special case (§2.4.3); LU does.
		{"LU", 1, 49,
			SkipStats{43287, 12300, 29261, 6053, 43287, 10758, 29261, 6053, 29261, 6053, 0, 6624},
			SkipStats{43287, 12300, 29261, 6053, 43287, 10758, 29261, 6053, 29261, 6053, 0, 6624}},
	}
	for i, g := range golden {
		if testing.Short() && i%3 != 0 {
			continue
		}
		for _, mode := range []struct {
			workers int
			want    SkipStats
		}{{0, g.serial}, {2, g.workers2}} {
			res := Profile(workloads.MustBuild(g.name, g.scale).M, Options{Skip: true, Workers: mode.workers})
			if res.Skip != mode.want {
				t.Errorf("%s@%d, Workers: %d: skip counters\n got %+v\nwant %+v", g.name, g.scale, mode.workers, res.Skip, mode.want)
			}
			if len(res.Deps) != g.deps {
				t.Errorf("%s@%d, Workers: %d: %d dependences, want %d", g.name, g.scale, mode.workers, len(res.Deps), g.deps)
			}
		}
	}
}

// TestNegativeSlotsPanic: a negative slot count is a caller's bug and says so,
// instead of silently profiling with the smallest signature.
func TestNegativeSlotsPanic(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "Options.Slots") {
			t.Errorf("New with Slots: -5 panicked with %q, want a message naming Options.Slots", r)
		}
	}()
	New(synthModule(), Options{Store: StoreSignature, Slots: -5})
	t.Error("New accepted Slots: -5")
}

// TestFTDummyWAW: FT's dummy variable produces the WAW chain of
// Figure 2.14.
func TestFTDummyWAW(t *testing.T) {
	prog := workloads.MustBuild("FT", 1)
	res := Profile(prog.M, Options{Store: StorePerfect})
	found := false
	for d := range res.Deps {
		if d.Type == WAW && res.VarName(d.Var) == "dummy" && d.Carried {
			found = true
		}
	}
	if !found {
		t.Fatal("FT's dummy variable WAW chain (Figure 2.14) not observed")
	}
}

// TestRegionIterationCounts: the control information required for the
// BGN/END output must match the actual trip counts.
func TestRegionIterationCounts(t *testing.T) {
	prog := workloads.MustBuild("MG", 1)
	res := Profile(prog.M, Options{Store: StorePerfect})
	counted := 0
	for _, re := range res.Regions {
		if re.Region.Kind != ir.RLoop {
			continue
		}
		counted++
		// A region has a record once it was entered.
		if re.Iters == 0 {
			t.Errorf("loop %v entered with zero iterations", re.Region)
		}
	}
	if counted == 0 {
		t.Fatal("no loop execution records")
	}
}
