// Command bench is the repository's benchmark: one seeded program that
// measures the cost of a traced access in-process and the dp-serve job
// path over real sockets, end to end and layer by layer. BENCHMARK.json at
// the root of the repository names it; README.md in this directory says
// what each workload and metric is for.
//
// Usage:
//
//	go run ./bench -seed 1                          # all four workloads
//	go run ./bench -workload serve_mixed -trace 1   # one workload, per-layer metrics
//	go run ./bench -out A -seed 1; go run ./bench -out B -seed 1
//	go run ./bench -compare A/results.json B/results.json
//
// The last line of standard output of a run is one JSON object with the
// run's correctness, its attempted and failed operations, and its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: solo_large, solo_variants, serve_mixed or fleet_hop (default: all, one after another)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase of each workload")
		trace    = flag.Int("trace", 0, "1 repeats the workload with spans around every layer call and reports the per-layer metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.json and the Chrome trace files")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments against the bounds in BENCHMARK.json")
		writeExp = flag.Bool("write-expected", false, "regenerate bench/expected.json with the tree-walking reference engine")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results.json files")
			return 2
		}
		breaches, err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if breaches > 0 {
			return 1
		}
		return 0
	}
	if *writeExp {
		if err := writeExpected(filepath.Join("bench", "expected.json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		names = nil
		for _, n := range workloadNames {
			if n == *workload {
				names = []string{n}
			}
		}
		if names == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
			return 2
		}
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizing,
		outDir: *out, buildDir: ".bench_build", exp: exp}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// An interrupted run must not leave servers behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(1)
	}()
	code := 0
	for _, name := range names {
		cfg.workload = name
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.printTable()
		line, err := res.resultLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := appendResult(filepath.Join(cfg.outDir, "results.json"), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		fmt.Println(line)
	}
	return code
}

// resultsFile is what -out accumulates: every run made into that
// directory, so ten runs into A and ten into B compare by their medians.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func appendResult(path string, res *runResult) error {
	rf, err := readResults(path)
	if os.IsNotExist(err) {
		rf, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, res)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
