// Command dp-discover runs the full three-phase DiscoPoP-Go pipeline —
// profiling, CU construction, parallelism discovery, ranking — on one or
// more bundled workloads and prints the ranked parallelization suggestions.
// Multiple workloads (comma-separated, or "all") are analyzed concurrently
// on the batch engine.
//
// Usage:
//
//	dp-discover -workload CG [-scale 1] [-threads 16] [-bottomup] [-cus] [-v]
//	dp-discover -workload CG,EP,kmeans -jobs 4
//	dp-discover -workload CG -cpuprofile cpu.pprof -memprofile mem.pprof
//	dp-discover -workload CG -trace
//	dp-discover -workload all -stats
//	dp-discover -workload all -remote http://10.0.0.7:8080,http://10.0.0.8:8080
//
// With -remote the modules are serialized and shipped to the named
// dp-serve workers instead of being analyzed in-process; the printed
// ranking comes from the workers' wire reports (CU-graph options like
// -cus and -dot need the in-process products and are unavailable).
// Wire reports are summaries: workers send only the positive-score
// suggestions, capped at 100 best-first, so zero-score rows a local
// `-v` run would print do not appear with -remote.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"discopop"
	"discopop/internal/ir"
	"discopop/internal/pipeline"
	"discopop/internal/profflag"
	"discopop/internal/remote"
	"discopop/internal/workloads"
)

// main defers to run so that deferred cleanups — notably the pprof Stop —
// fire before the exit code is surrendered to os.Exit.
func main() { os.Exit(run()) }

// config is the parsed command line.
type config struct {
	workload string
	scale    int
	threads  int
	jobs     int
	bottomUp bool
	showCUs  bool
	stats    bool
	dot      string
	verbose  bool
	remotes  string
	trace    bool
	prof     *profflag.Flags
}

// usageError is a command line the flag package accepts and dp-discover does
// not; the flag package reports its own errors (and -h) itself.
type usageError string

func (e usageError) Error() string { return string(e) }

// parse reads and validates the command line (without the program name).
// Every error it returns is a usage error.
func parse(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("dp-discover", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name(s), comma-separated, or \"all\"")
	fs.IntVar(&c.scale, "scale", 1, "workload scale factor")
	fs.IntVar(&c.threads, "threads", 16, "thread count for local-speedup ranking")
	fs.IntVar(&c.jobs, "jobs", 0, "concurrent analysis jobs (0 = auto: one per CPU)")
	fs.BoolVar(&c.bottomUp, "bottomup", false, "use bottom-up CU construction (§3.2.3)")
	fs.BoolVar(&c.showCUs, "cus", false, "print the CU graph")
	fs.BoolVar(&c.stats, "stats", false, "print fleet-level engine stats")
	fs.StringVar(&c.dot, "dot", "", "write the CU graph in Graphviz format (raw|clustered)")
	fs.BoolVar(&c.verbose, "v", false, "print blocking dependences per loop")
	fs.StringVar(&c.remotes, "remote", "", "comma-separated dp-serve worker URLs; analyze on the fleet")
	fs.BoolVar(&c.trace, "trace", false, "print each job's span tree (stage timings; includes worker spans with -remote)")
	c.prof = profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case c.workload == "":
		return c, usageError("usage: dp-discover -workload <name>[,<name>...] (dp-profile -list shows names)")
	case c.dot != "" && (c.workload == "all" || strings.Contains(c.workload, ",")):
		return c, usageError("dp-discover: -dot supports a single workload (stdout is one Graphviz document)")
	case c.remotes != "" && (c.dot != "" || c.showCUs):
		return c, usageError("dp-discover: -cus/-dot need the in-process CU graph and cannot combine with -remote")
	}
	return c, nil
}

func run() int {
	c, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		if _, own := err.(usageError); own {
			fmt.Fprintln(os.Stderr, err)
		}
		return 2
	}
	if err := c.prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer c.prof.Stop()
	progs, err := workloads.BuildBatch(c.workload, c.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var batch []discopop.Job
	for _, prog := range progs {
		batch = append(batch, discopop.Job{Name: prog.Name, Mod: prog.M})
	}
	opt := discopop.Options{
		Threads:      c.threads,
		BottomUpCUs:  c.bottomUp,
		BatchWorkers: c.jobs,
	}
	var results []*pipeline.JobResult
	var fleet pipeline.FleetStats
	if c.remotes != "" {
		results, fleet = analyzeRemote(batch, opt, strings.Split(c.remotes, ","))
	} else {
		results, fleet = discopop.AnalyzeAllStats(batch, opt)
	}
	failed := false
	for _, jr := range results {
		if jr.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", jr.Name, jr.Err)
			failed = true
			continue
		}
		report(jr.Name, jr.Report, c.verbose, c.showCUs, c.dot)
		if c.trace && jr.Trace != nil {
			fmt.Println()
			jr.Trace.WriteText(os.Stdout)
		}
	}
	if c.stats {
		fmt.Printf("\nfleet: %d jobs (%d failed), %d instrs, %d deps, %d accesses, store %.1f MB, busy %s\n",
			fleet.Jobs, fleet.Failed, fleet.Instrs, fleet.Deps, fleet.Accesses,
			float64(fleet.StoreBytes)/(1<<20), fleet.Busy.Round(1e6))
		stages := make([]string, 0, len(fleet.StageTime))
		for s := range fleet.StageTime {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			fmt.Printf("  stage %-10s %s\n", s, fleet.StageTime[s].Round(1e6))
		}
		if q := fleet.QueueLat; q.Count > 0 {
			fmt.Printf("  queue latency: min %s  p50~%s  max %s  (mean %s over %d jobs)\n",
				q.Min, q.Median(), q.Max, q.Mean(), q.Count)
			fmt.Printf("    histogram: %s\n", q.String())
		}
		if fleet.CacheHits > 0 || fleet.CacheEvictions > 0 {
			fmt.Printf("  profile cache: %d hits, %d evictions\n",
				fleet.CacheHits, fleet.CacheEvictions)
		}
		if p := fleet.Pool; p.Gets > 0 {
			fmt.Printf("  arena pool: %d gets, %d puts, %d fresh allocations (%d recycled)\n",
				p.Gets, p.Puts, p.Fresh, p.Gets-p.Fresh)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// analyzeRemote fans the batch out over dp-serve workers: the engine's
// only stage serializes each module and ships it to the fleet, with
// failover between peers and local fallback when every peer is down.
func analyzeRemote(batch []discopop.Job, opt discopop.Options, peers []string) ([]*pipeline.JobResult, pipeline.FleetStats) {
	stage := &remote.Stage{Client: remote.NewClient(peers, remote.ClientOptions{})}
	out, fleet := pipeline.AnalyzeAllWith(
		&pipeline.Pipeline{Stages: []pipeline.Stage{stage}}, batch, opt)
	if n := stage.Fallbacks(); n > 0 {
		fmt.Fprintf(os.Stderr, "dp-discover: %d job(s) fell back to local analysis (no peer available)\n", n)
	}
	return out, fleet
}

func report(name string, rep *discopop.Report, verbose, showCUs bool, dot string) {
	if rep.Profile == nil || rep.CUs == nil {
		// Remote analysis: only the wire summary crossed back.
		peer := rep.RemotePeer
		if peer == "" {
			peer = "?"
		}
		fmt.Printf("%s: %d statements executed, %d dependences, %d CUs (analyzed on %s)\n\n",
			name, rep.Instrs, rep.NumDeps(), rep.NumCUs(), peer)
		printRanking(rep, verbose)
		return
	}
	fmt.Printf("%s: %d statements executed, %d dependences, %d CUs, %d CU edges\n\n",
		name, rep.Instrs, len(rep.Profile.Deps), len(rep.CUs.CUs), len(rep.CUs.Edges))
	printRanking(rep, verbose)
	if dot != "" {
		// Figure 3.6 style (RAW only) or Figure 3.7 style (clustered).
		fmt.Print(rep.CUs.DOT(dot != "clustered", dot == "clustered"))
		return
	}
	if showCUs {
		fmt.Println("\nCU graph:")
		for _, c := range rep.CUs.CUs {
			fmt.Printf("  %s region=%s reads=%v writes=%v weight=%.0f\n",
				c, c.Region, varNames(c.ReadSet), varNames(c.WriteSet), c.Weight)
		}
		for _, e := range rep.CUs.Edges {
			carried := ""
			if e.Carried {
				carried = " carried"
			}
			fmt.Printf("  CU#%d -%s%s-> CU#%d (%d)\n", e.From.ID, e.Type, carried, e.To.ID, e.Count)
		}
	}
}

func printRanking(rep *discopop.Report, verbose bool) {
	fmt.Printf("%-4s %-18s %-10s %9s %9s %9s %9s\n",
		"rank", "kind", "location", "coverage", "speedup", "imbal", "score")
	rank := 0
	for _, s := range rep.Ranked {
		if s.Score <= 0 && !verbose {
			continue
		}
		rank++
		fmt.Printf("%-4d %-18s %-10s %8.1f%% %8.2fx %9.3f %9.4f  %s\n",
			rank, s.Kind, s.Loc, 100*s.Coverage, s.LocalSpeedup, s.Imbalance, s.Score, s.Notes)
		if verbose && rep.Profile != nil {
			for _, d := range s.Blocking {
				fmt.Printf("       blocking: %s RAW %s (%s)\n",
					d.Sink, d.Source, rep.Profile.VarName(d.Var))
			}
		}
	}
}

func varNames(vs []*ir.Var) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}
