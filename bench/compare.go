package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// compareFiles prints, per workload and end-to-end metric, the median of
// the untraced runs in each file, how much B is worse than A as a share of
// A, and the bound from BENCHMARK.json. It returns the number of breaches:
// a metric worse by more than its bound or reading 0, a workload only one
// side ran (or no workload both ran), seeds that differ between the sides
// (so the inputs did), a failed operation on either side, or a
// truth_match_share that differs at all (it is deterministic).
func compareFiles(specPath, pathA, pathB string, w io.Writer) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	untraced := func(rf *resultsFile, workload string) (runs []*runResult, seeds []int64, failed int) {
		for _, r := range rf.Runs {
			if r.Workload == workload && !r.Trace {
				runs, seeds, failed = append(runs, r), append(seeds, r.Seed), failed+r.Failed
			}
		}
		slices.Sort(seeds)
		return runs, seeds, failed
	}
	medianOf := func(runs []*runResult, metric string) float64 {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[metric])
		}
		return median(vals)
	}
	breaches, compared := 0, 0
	breach := func(workload, format string, args ...any) {
		breaches++
		fmt.Fprintf(w, "%-14s %s  BREACH\n", workload, fmt.Sprintf(format, args...))
	}
	fmt.Fprintf(w, "%-14s %-18s %5s %14s %14s %9s %7s\n", "workload", "metric", "runs", "A", "B", "worse", "bound")
	for _, wl := range spec.Workloads {
		ra, seedsA, failedA := untraced(a, wl.Name)
		rb, seedsB, failedB := untraced(b, wl.Name)
		if len(ra) == 0 && len(rb) == 0 {
			fmt.Fprintf(w, "%-14s not run on either side\n", wl.Name)
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			breach(wl.Name, "nothing to compare: %d untraced runs in A, %d in B", len(ra), len(rb))
			continue
		}
		compared++
		if !slices.Equal(seedsA, seedsB) {
			breach(wl.Name, "seeds differ: %v in A, %v in B", seedsA, seedsB)
		}
		if failedA+failedB > 0 {
			breach(wl.Name, "failed operations: %d in A, %d in B", failedA, failedB)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := medianOf(ra, m.Name), medianOf(rb, m.Name)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case ma == 0 || mb == 0:
				// No end-to-end metric is ever 0: the run did not measure it.
				verdict = "  BREACH (a median of 0)"
			case m.Name == "truth_match_share" && ma != mb:
				verdict = "  BREACH (deterministic metric differs)"
			case worse > m.Bound:
				verdict = "  BREACH"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Fprintf(w, "%-14s %-18s %2d/%-2d %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				wl.Name, m.Name, len(ra), len(rb), ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		breach("all", "the two files share no workload with untraced runs")
	}
	return breaches, nil
}
