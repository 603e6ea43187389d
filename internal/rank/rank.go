// Package rank implements the ranking of parallelization targets
// (Section 4.3) with its three metrics: instruction coverage (4.3.1),
// local speedup (4.3.2), and CU imbalance (4.3.3).
package rank

import (
	"math"
	"sort"

	"discopop/internal/discovery"
	"discopop/internal/graph"
)

// Options configures ranking.
type Options struct {
	// Threads caps the local-speedup estimate (default 16).
	Threads int
}

// Rank fills the metric fields of every suggestion and returns them sorted
// by descending score. Suggestions classified Sequential keep score 0.
func Rank(a *discovery.Analysis, opt Options) []*discovery.Suggestion {
	if opt.Threads == 0 {
		opt.Threads = 16
	}
	total := float64(a.Res.TotalInstrs)
	for _, s := range a.Suggestions {
		coverage(s, a, total)
		localSpeedup(s, a, opt.Threads)
		imbalance(s)
		if s.Kind == discovery.Sequential {
			s.Score = 0
			continue
		}
		s.Score = s.Coverage * s.LocalSpeedup / (1 + s.Imbalance)
	}
	out := append([]*discovery.Suggestion{}, a.Suggestions...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// coverage computes the fraction of dynamic work spent inside the
// suggestion's construct, inclusive of callees (Section 4.3.1).
func coverage(s *discovery.Suggestion, a *discovery.Analysis, total float64) {
	if total == 0 {
		return
	}
	var w float64
	switch {
	case s.Region != nil:
		if re := a.Res.Regions[s.Region.ID]; re != nil {
			w = float64(re.Instrs)
		}
	case s.Func != nil:
		w = float64(a.Res.FuncInstrs[s.Func])
	}
	if w > total {
		w = total
	}
	s.Coverage = w / total
}

// localSpeedup estimates the speedup achievable inside the construct alone
// (Section 4.3.2): DOALL loops scale with min(threads, iterations);
// DOACROSS loops with the pipeline bound; task suggestions with
// work / critical-path of their CU graph.
func localSpeedup(s *discovery.Suggestion, a *discovery.Analysis, threads int) {
	p := float64(threads)
	switch s.Kind {
	case discovery.DOALL, discovery.DOALLReduction, discovery.SPMDTask:
		it := float64(s.Iters)
		if s.Region == nil || it == 0 {
			it = p
		}
		s.LocalSpeedup = math.Min(p, it)
	case discovery.DOACROSS:
		var seqW, parW float64
		for _, c := range s.SeqStage {
			seqW += c.Weight
		}
		for _, c := range s.ParStage {
			parW += c.Weight
		}
		if seqW+parW == 0 {
			s.LocalSpeedup = 1
			return
		}
		// Pipeline bound: the sequential stage runs at full length; the
		// parallel stage overlaps across threads (Amdahl on the body).
		frac := seqW / (seqW + parW)
		s.LocalSpeedup = 1 / (frac + (1-frac)/p)
	case discovery.MPMDTask:
		if s.LocalSpeedup == 0 {
			s.LocalSpeedup = cpSpeedup(s, p)
		}
		s.LocalSpeedup = math.Min(s.LocalSpeedup, p)
	default:
		s.LocalSpeedup = 1
	}
}

func cpSpeedup(s *discovery.Suggestion, p float64) float64 {
	n := len(s.Tasks)
	if n == 0 {
		return 1
	}
	g := graph.New(n)
	g.Weight = make([]float64, n)
	for i, grp := range s.Tasks {
		for _, c := range grp {
			g.Weight[i] += c.Weight + 1
		}
	}
	cp, total := g.CriticalPath()
	return math.Min(safe(total, cp), p)
}

// imbalance computes the CU imbalance metric of Section 4.3.3: how evenly
// the work of the suggestion's concurrent parts is distributed (Figure
// 4.6). We use the coefficient of variation of task weights: 0 for
// perfectly balanced tasks, growing as one task dominates.
func imbalance(s *discovery.Suggestion) {
	if len(s.Tasks) < 2 {
		s.Imbalance = 0
		return
	}
	ws := make([]float64, len(s.Tasks))
	var sum float64
	for i, grp := range s.Tasks {
		for _, c := range grp {
			ws[i] += c.Weight + 1
		}
		sum += ws[i]
	}
	mean := sum / float64(len(ws))
	if mean == 0 {
		return
	}
	var varsum float64
	for _, w := range ws {
		varsum += (w - mean) * (w - mean)
	}
	s.Imbalance = math.Sqrt(varsum/float64(len(ws))) / mean
}

func safe(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
