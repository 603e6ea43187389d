// Command dp-experiments regenerates the paper's evaluation tables and
// figures (the per-experiment index is in DESIGN.md; recorded outputs in
// EXPERIMENTS.md).
//
// Usage:
//
//	dp-experiments                  # run everything
//	dp-experiments -run table4.1    # run one experiment
//	dp-experiments -scale 2         # larger workloads
//	dp-experiments -par 8           # 8 concurrent jobs in discovery sweeps
//	dp-experiments -cache=false     # re-profile every sweep (no memoization)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"discopop"
	"discopop/internal/experiments"
	"discopop/internal/profflag"
)

// main defers to run so that deferred cleanups — notably the pprof Stop —
// fire before the exit code is surrendered to os.Exit.
func main() { os.Exit(runMain()) }

func runMain() int {
	var (
		run   = flag.String("run", "", "experiment ID to run (e.g. table2.6, fig2.9); empty = all")
		scale = flag.Int("scale", 1, "workload scale factor")
		par   = flag.Int("par", 0, "concurrent analysis jobs in the ch4/ch5 discovery sweeps (0 = one per CPU)")
		cache = flag.Bool("cache", true, "share one Profile-stage cache across the discovery sweeps (ch4/ch5 tables re-analyzing a workload skip re-profiling)")
	)
	pf := profflag.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer pf.Stop()
	experiments.BatchWorkers = *par
	if *cache {
		experiments.Cache = discopop.NewProfileCache()
	}
	type exp struct {
		id string
		f  func() *experiments.Result
	}
	all := []exp{
		{"table2.6", func() *experiments.Result {
			return experiments.Table2_6(*scale, []int{1 << 10, 1 << 14, 1 << 20})
		}},
		{"fig2.9", func() *experiments.Result { return experiments.Fig2_9(*scale) }},
		{"fig2.10", func() *experiments.Result { return experiments.Fig2_10(*scale) }},
		{"fig2.12", func() *experiments.Result { return experiments.Fig2_12(*scale) }},
		{"table2.7", func() *experiments.Result { return experiments.Table2_7(*scale) }},
		{"fig2.13", func() *experiments.Result { return experiments.Fig2_13(*scale) }},
		{"table4.1", func() *experiments.Result { return experiments.Table4_1(*scale) }},
		{"table4.2", func() *experiments.Result { return experiments.Table4_2(*scale, 4) }},
		{"table4.3", func() *experiments.Result { return experiments.Table4_3(*scale) }},
		{"table4.4", func() *experiments.Result { return experiments.Table4_4(*scale) }},
		{"table4.5", func() *experiments.Result { return experiments.Table4_5(*scale, 4) }},
		{"table4.6", func() *experiments.Result { return experiments.Table4_6(*scale) }},
		{"table4.7", func() *experiments.Result { return experiments.Table4_7(*scale) }},
		{"fig4.11", func() *experiments.Result { return experiments.Fig4_11(*scale) }},
		{"table5.2", func() *experiments.Result { return experiments.Table5_2_5_3(*scale) }},
		{"table5.4", func() *experiments.Result { return experiments.Table5_4(*scale) }},
		{"fig5.1", func() *experiments.Result { return experiments.Fig5_1(*scale) }},
	}
	matched := false
	for _, e := range all {
		if *run != "" && !strings.HasPrefix(e.id, strings.ToLower(*run)) &&
			!strings.HasPrefix(strings.ToLower(*run), e.id) {
			continue
		}
		matched = true
		res := e.f()
		fmt.Printf("==== %s: %s ====\n%s\n", res.ID, res.Title, res.Text)
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", *run)
		for _, e := range all {
			fmt.Fprintf(os.Stderr, " %s", e.id)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	if experiments.Cache != nil {
		hits, misses := experiments.Cache.Stats()
		fmt.Printf("profile cache: %d hits, %d misses (each hit skipped one instrumented re-execution)\n",
			hits, misses)
	}
	return 0
}
