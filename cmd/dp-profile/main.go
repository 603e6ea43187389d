// Command dp-profile runs the DiscoPoP-Go data-dependence profiler on one
// or more bundled workloads and writes the dependence file (the Figure
// 2.1/2.3 format) to stdout or a file, together with profiling statistics.
// It drives the Profile+BuildPET stages of the analysis pipeline; multiple
// workloads (comma-separated) are profiled concurrently on the batch
// engine.
//
// Usage:
//
//	dp-profile -workload kmeans [-scale 1] [-store sig|perfect]
//	           [-slots N] [-workers N] [-skip] [-mt] [-o deps.txt] [-pet]
//	dp-profile -workload kmeans,CG,EP -jobs 4
//	dp-profile -workload CG -cpuprofile cpu.pprof -memprofile mem.pprof
//	dp-profile -workload CG -pprof cg.pb.gz && go tool pprof -top cg.pb.gz
//
// -pprof exports the workload's per-line execution effort (interpreted
// statements per source line) as a gzipped pprof profile readable by
// `go tool pprof` — the profiled program's hot lines, not this process's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"discopop/internal/obs"
	"discopop/internal/pipeline"
	"discopop/internal/profflag"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// main defers to run so that deferred cleanups — notably the pprof Stop —
// fire before the exit code is surrendered to os.Exit.
func main() { os.Exit(run()) }

// config is the parsed command line.
type config struct {
	workload string
	scale    int
	popt     profiler.Options
	jobs     int
	out      string
	withPET  bool
	pprofOut string
	list     bool
	prof     *profflag.Flags
}

// usageError is a command line the flag package accepts and dp-profile does
// not; the flag package reports its own errors (and -h) itself.
type usageError string

func (e usageError) Error() string { return string(e) }

// parse reads and validates the command line (without the program name).
// Every error it returns is a usage error.
func parse(args []string) (config, error) {
	var c config
	var store string
	fs := flag.NewFlagSet("dp-profile", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name(s), comma-separated, or \"all\" (see -list)")
	fs.IntVar(&c.scale, "scale", 1, "workload scale factor")
	fs.StringVar(&store, "store", "perfect", "status store: sig | perfect")
	fs.IntVar(&c.popt.Slots, "slots", 0, "total signature slots (sig store; 0 = the library default, 1<<22)")
	fs.IntVar(&c.popt.Workers, "workers", 0, "parallel profiling workers per job (0 = serial)")
	fs.IntVar(&c.jobs, "jobs", 0, "concurrent profiling jobs (0 = auto: CPUs, divided by -workers+1 when parallel profiling)")
	fs.BoolVar(&c.popt.Skip, "skip", false, "enable loop-skipping optimization (§2.4)")
	fs.BoolVar(&c.popt.MT, "mt", false, "multi-threaded-target pipeline (§2.3.4)")
	fs.StringVar(&c.out, "o", "", "output file (default stdout)")
	fs.BoolVar(&c.withPET, "pet", false, "also print the program execution tree")
	fs.StringVar(&c.pprofOut, "pprof", "", "write per-line execution effort as a gzipped pprof profile (single workload only)")
	fs.BoolVar(&c.list, "list", false, "list available workloads")
	c.prof = profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch store {
	case "perfect":
		c.popt.Store = profiler.StorePerfect
	case "sig":
		c.popt.Store = profiler.StoreSignature
	default:
		return c, usageError(fmt.Sprintf("dp-profile: unknown -store %q (want sig or perfect)", store))
	}
	if c.popt.Slots < 0 {
		return c, usageError(fmt.Sprintf("dp-profile: -slots %d is negative", c.popt.Slots))
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
	if c.list || c.workload == "" {
		fmt.Println("available workloads:")
		for _, suite := range workloads.Suites() {
			fmt.Printf("  %-14s %s\n", suite+":", strings.Join(workloads.Names(suite), " "))
		}
		if c.workload == "" {
			return 0
		}
	}

	progs, err := workloads.BuildBatch(c.workload, c.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var batch []pipeline.Job
	for _, prog := range progs {
		batch = append(batch, pipeline.Job{Name: prog.Name, Mod: prog.M})
	}
	results := pipeline.ProfileAll(batch, pipeline.Options{
		Profiler: c.popt, BatchWorkers: c.jobs,
	})

	var sb strings.Builder
	failed := false
	for _, jr := range results {
		if jr.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", jr.Name, jr.Err)
			failed = true
			continue
		}
		rep := jr.Report
		res := rep.Profile
		if len(results) > 1 {
			fmt.Fprintf(&sb, "=== %s ===\n", jr.Name)
		}
		res.WriteDepFile(&sb, c.popt.MT)
		// Report the instrumented execution's wall time, not whole-job
		// time: the ms figure feeds slowdown comparisons and must exclude
		// profiler setup, PET finalization, and result merging.
		fmt.Fprintf(os.Stderr,
			"profiled %s: %d statements, %d accesses, %d merged deps, %d races, store %.1f MB, %.0f ms\n",
			jr.Name, rep.Instrs, res.Accesses, len(res.Deps), res.Races,
			float64(res.StoreBytes)/(1<<20), rep.ExecTime.Seconds()*1000)
		if c.popt.Skip {
			s := res.Skip
			fmt.Fprintf(os.Stderr, "skip: %d/%d reads, %d/%d writes skipped\n",
				s.SkippedReads, s.Reads, s.SkippedWrite, s.Writes)
		}
		if c.withPET {
			fmt.Fprint(os.Stderr, rep.PET.Render())
		}
	}
	output := sb.String()
	if failed {
		// Leave any existing -o file untouched on failure: a partial
		// batch must not clobber a good dependence file from a prior run.
		fmt.Fprintln(os.Stderr, "dp-profile: some jobs failed; output not written")
		return 1
	}
	if c.pprofOut != "" {
		if len(results) != 1 {
			fmt.Fprintln(os.Stderr, "dp-profile: -pprof takes exactly one workload")
			return 1
		}
		data, err := obs.EncodeLineProfile("instructions", "count",
			obs.ModuleLineSamples(progs[0].M, results[0].Report.Profile.Lines),
			time.Now().UnixNano())
		if err == nil {
			err = os.WriteFile(c.pprofOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dp-profile: -pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote pprof profile to %s (%d bytes)\n", c.pprofOut, len(data))
	}
	if c.out != "" {
		if err := os.WriteFile(c.out, []byte(output), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		fmt.Print(output)
	}
	return 0
}
