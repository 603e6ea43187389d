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
//
// The discovery sweeps share one Profile-stage cache: a ch4/ch5 table that
// re-analyzes a workload skips re-profiling it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
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
	)
	pf := profflag.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer pf.Stop()
	experiments.BatchWorkers = *par
	experiments.Cache = discopop.NewProfileCache()
	exps, err := selected(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, e := range exps {
		res := e.Run(*scale)
		fmt.Printf("==== %s: %s ====\n%s\n", res.ID, res.Title, res.Text)
	}
	hits, misses := experiments.Cache.Stats()
	fmt.Printf("profile cache: %d hits, %d misses (each hit skipped one instrumented re-execution)\n",
		hits, misses)
	return 0
}

// selected returns the entries of experiments.Index that -run names: every
// entry one of whose names starts with run (all of them for an empty run),
// so "table4" selects chapter 4's seven tables. An ID such as
// "table5.2/5.3" is named by itself and by each table it regenerates.
func selected(run string) ([]experiments.Experiment, error) {
	want := strings.ToLower(run)
	var out []experiments.Experiment
	for _, e := range experiments.Index {
		if slices.ContainsFunc(names(e.ID), func(n string) bool { return strings.HasPrefix(n, want) }) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		ids := make([]string, len(experiments.Index))
		for i, e := range experiments.Index {
			ids[i] = e.ID
		}
		return nil, fmt.Errorf("unknown experiment %q; known: %s", run, strings.Join(ids, " "))
	}
	return out, nil
}

// names expands an index ID into the names it answers to: "table5.2/5.3"
// is "table5.2/5.3", "table5.2" and "table5.3".
func names(id string) []string {
	parts := strings.Split(id, "/")
	out := []string{id}
	if len(parts) > 1 {
		for _, p := range parts {
			out = append(out, parts[0][:len(parts[0])-len(p)]+p)
		}
	}
	return out
}
