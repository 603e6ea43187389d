package rank

import (
	"testing"

	"discopop/internal/cu"
	"discopop/internal/discovery"
	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

func analyzeWorkload(t *testing.T, name string) *discovery.Analysis {
	t.Helper()
	prog := workloads.MustBuild(name, 1)
	res := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect})
	sc := ir.AnalyzeScopes(prog.M)
	g := cu.Build(prog.M, sc, res)
	return discovery.Analyze(prog.M, sc, res, g)
}

func TestCoverageInUnitInterval(t *testing.T) {
	for _, name := range []string{"CG", "kmeans", "histogram", "gzip"} {
		a := analyzeWorkload(t, name)
		ranked := Rank(a, Options{})
		for _, s := range ranked {
			if s.Coverage < 0 || s.Coverage > 1 {
				t.Errorf("%s: coverage %f outside [0,1] for %v", name, s.Coverage, s)
			}
		}
	}
}

func TestLocalSpeedupBounds(t *testing.T) {
	a := analyzeWorkload(t, "c-ray")
	ranked := Rank(a, Options{Threads: 8})
	for _, s := range ranked {
		if s.LocalSpeedup < 1-1e-9 {
			t.Errorf("local speedup %f < 1 for %v", s.LocalSpeedup, s)
		}
		switch s.Kind {
		case discovery.DOALL, discovery.DOALLReduction, discovery.SPMDTask, discovery.MPMDTask:
			if s.LocalSpeedup > 8+1e-9 {
				t.Errorf("local speedup %f exceeds thread cap for %v", s.LocalSpeedup, s)
			}
		}
	}
}

func TestScoreOrdering(t *testing.T) {
	a := analyzeWorkload(t, "kmeans")
	ranked := Rank(a, Options{})
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatalf("ranking not sorted: %f after %f", ranked[i].Score, ranked[i-1].Score)
		}
	}
}

func TestSequentialLoopsScoreZero(t *testing.T) {
	a := analyzeWorkload(t, "prefix-sum")
	ranked := Rank(a, Options{})
	for _, s := range ranked {
		if s.Kind == discovery.Sequential && s.Score != 0 {
			t.Errorf("sequential suggestion has score %f", s.Score)
		}
	}
}

func TestImbalanceZeroForEqualTasks(t *testing.T) {
	mkCU := func(w float64) *cu.CU { return &cu.CU{Weight: w} }
	s := &discovery.Suggestion{
		Kind: discovery.MPMDTask,
		Tasks: [][]*cu.CU{
			{mkCU(10)}, {mkCU(10)}, {mkCU(10)},
		},
	}
	imbalance(s)
	if s.Imbalance != 0 {
		t.Fatalf("equal tasks imbalance = %f, want 0", s.Imbalance)
	}
	skewed := &discovery.Suggestion{
		Kind: discovery.MPMDTask,
		Tasks: [][]*cu.CU{
			{mkCU(100)}, {mkCU(1)}, {mkCU(1)},
		},
	}
	imbalance(skewed)
	if skewed.Imbalance <= 0.5 {
		t.Fatalf("skewed tasks imbalance = %f, want > 0.5 (Figure 4.6)", skewed.Imbalance)
	}
}

func TestImbalancePenalizesScore(t *testing.T) {
	// Two otherwise identical suggestions: the balanced one must rank
	// higher.
	mkCU := func(w float64) *cu.CU { return &cu.CU{Weight: w} }
	balanced := &discovery.Suggestion{Kind: discovery.MPMDTask, Coverage: 0.5,
		LocalSpeedup: 2, Tasks: [][]*cu.CU{{mkCU(10)}, {mkCU(10)}}}
	skewed := &discovery.Suggestion{Kind: discovery.MPMDTask, Coverage: 0.5,
		LocalSpeedup: 2, Tasks: [][]*cu.CU{{mkCU(19)}, {mkCU(1)}}}
	imbalance(balanced)
	imbalance(skewed)
	sb := balanced.Coverage * balanced.LocalSpeedup / (1 + balanced.Imbalance)
	ss := skewed.Coverage * skewed.LocalSpeedup / (1 + skewed.Imbalance)
	if sb <= ss {
		t.Fatalf("balanced score %f not above skewed %f", sb, ss)
	}
}

func TestDefaultThreads(t *testing.T) {
	a := analyzeWorkload(t, "rgbyuv")
	ranked := Rank(a, Options{}) // default 16
	for _, s := range ranked {
		if s.Kind == discovery.DOALL && s.LocalSpeedup > 16+1e-9 {
			t.Fatalf("default thread cap not applied: %f", s.LocalSpeedup)
		}
	}
}
