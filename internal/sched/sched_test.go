package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func clampI(v int64, lo, hi int64) int64 {
	v %= hi - lo + 1
	if v < 0 {
		v += hi - lo + 1
	}
	return lo + v
}

func clampF(v float64, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	v = math.Mod(math.Abs(v), hi-lo)
	return lo + v
}

func TestDOALLSpeedupBounds(t *testing.T) {
	f := func(iters int64, perIter float64, p int64) bool {
		it := clampI(iters, 1, 10000)
		pi := clampF(perIter, 0.1, 1000)
		pp := int(clampI(p, 1, 64))
		sp := DOALLSpeedup(it, pi, pp, 0.02)
		return sp >= 1-1e-9 && sp <= float64(pp)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDOALLSpeedupNearLinear(t *testing.T) {
	sp := DOALLSpeedup(10000, 1, 8, 0)
	if math.Abs(sp-8) > 0.1 {
		t.Fatalf("10000 iterations on 8 workers = %f, want ~8", sp)
	}
}

func TestDOALLSpeedupFewIterations(t *testing.T) {
	// 3 iterations on 8 workers: at most 3x.
	sp := DOALLSpeedup(3, 1, 8, 0)
	if sp > 3+1e-9 {
		t.Fatalf("3 iterations speedup %f exceeds iteration bound", sp)
	}
	// A single iteration is not distributed, so it pays no task overhead
	// (the draw on which TestDOALLSpeedupBounds used to fail).
	if sp := DOALLSpeedup(1, 5, 8, 0.02); sp != 1 {
		t.Fatalf("1 iteration on 8 workers = %f, want 1", sp)
	}
}

func TestListScheduleChain(t *testing.T) {
	// A dependent chain cannot parallelize.
	tasks := []Task{{Work: 1}, {Work: 2, Deps: []int{0}}, {Work: 3, Deps: []int{1}}}
	ms, seq := ListSchedule(tasks, 8)
	if ms != 6 || seq != 6 {
		t.Fatalf("chain: makespan=%f seq=%f, want 6, 6", ms, seq)
	}
}

func TestListScheduleIndependent(t *testing.T) {
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i].Work = 1
	}
	ms, _ := ListSchedule(tasks, 4)
	if ms != 2 {
		t.Fatalf("8 unit tasks on 4 workers: makespan=%f, want 2", ms)
	}
	ms, _ = ListSchedule(tasks, 8)
	if ms != 1 {
		t.Fatalf("8 unit tasks on 8 workers: makespan=%f, want 1", ms)
	}
}

func TestListScheduleDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3 with weights 1, 4, 4, 1: cp = 6.
	tasks := []Task{
		{Work: 1},
		{Work: 4, Deps: []int{0}},
		{Work: 4, Deps: []int{0}},
		{Work: 1, Deps: []int{1, 2}},
	}
	ms, seq := ListSchedule(tasks, 2)
	if ms != 6 {
		t.Fatalf("diamond on 2 workers: makespan=%f, want 6", ms)
	}
	if seq != 10 {
		t.Fatalf("diamond sequential work=%f, want 10", seq)
	}
}

// TestListScheduleBounds: makespan is between max(cp, work/p) and work,
// for random DAGs — the fundamental scheduling envelope.
func TestListScheduleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(20)
		p := 1 + rng.Intn(8)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i].Work = float64(1 + rng.Intn(9))
			for d := 0; d < i; d++ {
				if rng.Intn(4) == 0 {
					tasks[i].Deps = append(tasks[i].Deps, d)
				}
			}
		}
		ms, seq := ListSchedule(tasks, p)
		if ms > seq+1e-9 {
			t.Fatalf("trial %d: makespan %f exceeds sequential %f", trial, ms, seq)
		}
		if ms < seq/float64(p)-1e-9 {
			t.Fatalf("trial %d: makespan %f beats perfect speedup (%f/%d)", trial, ms, seq, p)
		}
		// Greedy list scheduling is a 2-approximation: ms <= seq/p + cp
		// <= 2 * optimal; sanity check against the coarse bound.
		if ms > 2*seq {
			t.Fatalf("trial %d: makespan %f insane", trial, ms)
		}
	}
}

func TestListScheduleCycleFallsBack(t *testing.T) {
	tasks := []Task{{Work: 1, Deps: []int{1}}, {Work: 1, Deps: []int{0}}}
	ms, seq := ListSchedule(tasks, 4)
	if ms != seq {
		t.Fatalf("cyclic input not treated as sequential: %f vs %f", ms, seq)
	}
}

func TestTaskGraphSpeedup(t *testing.T) {
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i].Work = 1
	}
	sp := TaskGraphSpeedup(tasks, 4)
	if math.Abs(sp-4) > 1e-9 {
		t.Fatalf("16 independent tasks on 4 workers = %f, want 4", sp)
	}
}

func TestPipelineSpeedupBounds(t *testing.T) {
	f := func(seqW, parW float64, items, p int64) bool {
		sw := clampF(seqW, 0.1, 1e6)
		pw := clampF(parW, 0.1, 1e6)
		it := clampI(items, 1, 1000)
		pp := int(clampI(p, 1, 64))
		sp := PipelineSpeedup([]float64{sw, pw}, []bool{true, false}, it, pp)
		return sp >= 1-1e-9 && sp <= float64(pp)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSpeedupImprovesWithItems(t *testing.T) {
	few := PipelineSpeedup([]float64{1, 9}, []bool{true, false}, 2, 8)
	many := PipelineSpeedup([]float64{1, 9}, []bool{true, false}, 1000, 8)
	if many < few {
		t.Fatalf("pipeline speedup fell with more items: %f -> %f", few, many)
	}
}
