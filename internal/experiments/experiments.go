// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each function
// returns a formatted text block in the spirit of the original table plus
// structured values that the benchmark harness reports as metrics.
// Absolute numbers differ from the paper — the substrate is an IR
// interpreter, not the authors' Xeon testbed — but the comparisons the
// paper draws (who wins, by what factor, where effects appear) are
// reproduced on the same dependence structures.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"discopop"
	"discopop/internal/interp"
	"discopop/internal/mem"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// Row is one generic result row: a label plus named numeric cells.
type Row struct {
	Label string
	Cells map[string]float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // e.g. "table2.6", "fig2.9"
	Title string
	Rows  []Row
	Text  string
}

func (r *Result) add(label string, cells map[string]float64) {
	r.Rows = append(r.Rows, Row{Label: label, Cells: cells})
}

// Mean returns the mean of a named cell across rows that define it.
func (r *Result) Mean(cell string) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if v, ok := row.Cells[cell]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Experiment is one row of the experiment index in DESIGN.md: the ID that
// dp-experiments -run selects it by, and the call that regenerates it.
type Experiment struct {
	ID  string
	Run func(scale int) *Result
}

// Index lists every experiment in chapter order. An ID such as
// "table5.2/5.3" names one experiment that regenerates two tables.
var Index = []Experiment{
	{"table2.6", func(scale int) *Result { return Table2_6(scale, []int{1 << 10, 1 << 14, 1 << 20}) }},
	{"fig2.9", Fig2_9},
	{"fig2.10", Fig2_10},
	{"fig2.12", Fig2_12},
	{"table2.7", Table2_7},
	{"fig2.13", Fig2_13},
	{"table4.1", Table4_1},
	{"table4.2", func(scale int) *Result { return Table4_2(scale, 4) }},
	{"table4.3", Table4_3},
	{"table4.4", Table4_4},
	{"table4.5", func(scale int) *Result { return Table4_5(scale, 4) }},
	{"table4.6", Table4_6},
	{"table4.7", Table4_7},
	{"fig4.11", Fig4_11},
	{"table5.2/5.3", Table5_2_5_3},
	{"table5.4", Table5_4},
	{"fig5.1", Fig5_1},
}

// timingRuns is the number of repetitions per timing measurement; the
// minimum is reported (the paper averages three executions; the minimum is
// the standard noise-robust choice at our much smaller workload sizes).
const timingRuns = 3

// BatchWorkers bounds the worker pool used by the discovery sweeps (the
// ch4/ch5 tables, whose per-workload analyses are independent jobs). 0
// means one worker per CPU. Timing experiments (fig2.x) never batch:
// concurrent jobs would perturb their wall-clock measurements.
var BatchWorkers = 0

// Cache, when non-nil, memoizes the Profile stage across the discovery
// sweeps: the ch4/ch5 tables re-analyze the same workloads with identical
// profiling options, so every sweep after the first skips re-profiling.
// cmd/dp-experiments shares one cache across the whole run. Timing
// experiments (fig2.x) bypass the pipeline and are never cached.
//
// Caching also memoizes workload construction per (name, scale): cached
// reports point into the module instance that was profiled, and the
// ground-truth comparisons (Truth regions, SuggestionFor) match regions by
// pointer, so program and report must share one module.
var Cache *discopop.ProfileCache

var (
	progMu    sync.Mutex
	progCache = map[string]*workloads.Program{}
)

// buildWorkload builds a workload, memoized per (name, scale) when the
// profile cache is active.
func buildWorkload(name string, scale int) *workloads.Program {
	if Cache == nil {
		return workloads.MustBuild(name, scale)
	}
	key := fmt.Sprintf("%s@%d", name, scale)
	progMu.Lock()
	defer progMu.Unlock()
	if p := progCache[key]; p != nil {
		return p
	}
	p := workloads.MustBuild(name, scale)
	progCache[key] = p
	return p
}

// analyzeStream builds the named workloads, analyzes them concurrently,
// and invokes fn for each completed job as it arrives (completion order,
// with the job's submission index). It never holds more than one report per
// pool worker alive: each report is released once fn returns, which keeps
// the peak memory of whole-corpus sweeps flat — callers accumulate the few
// scalars their table needs, indexed by i, and format rows afterwards. fn
// runs on the draining goroutine, so it needs no locking.
func analyzeStream(names []string, scale int,
	fn func(i int, prog *workloads.Program, rep *discopop.Report)) {
	progs := make([]*workloads.Program, len(names))
	for i, name := range names {
		progs[i] = buildWorkload(name, scale)
	}
	analyzeStreamProgs(progs, fn)
}

// analyzeStreamProgs is analyzeStream over prebuilt workloads (they must
// come from buildWorkload: a report served by the sweep cache points into
// the instance that was profiled). A failing job panics: the evaluation
// workloads are all expected to analyze cleanly.
func analyzeStreamProgs(progs []*workloads.Program,
	fn func(i int, prog *workloads.Program, rep *discopop.Report)) {
	e := discopop.NewEngine(discopop.Options{BatchWorkers: BatchWorkers, Cache: Cache})
	go func() {
		for _, p := range progs {
			e.Submit(discopop.Job{Name: p.Name, Mod: p.M})
		}
		e.Close()
	}()
	for jr := range e.Results() {
		if jr.Err != nil {
			panic(fmt.Sprintf("experiments: analyze %s: %v", jr.Name, jr.Err))
		}
		fn(jr.Index, progs[jr.Index], jr.Report)
	}
}

// nativeTime runs a program uninstrumented and returns wall time and
// executed statements. Arena setup/recycling happens outside the timed
// window, matching the paper's native-time measurements (process setup is
// not part of the reported execution time).
func nativeTime(p *workloads.Program) (time.Duration, int64) {
	best := time.Duration(1<<62 - 1)
	var instrs int64
	for i := 0; i < timingRuns; i++ {
		in := interp.New(p.M, nil, interp.WithPool(mem.Default))
		start := time.Now()
		instrs = in.Run()
		if d := time.Since(start); d < best {
			best = d
		}
		in.Release()
	}
	return best, instrs
}

// profiledTime runs a program under the profiler with the given options.
func profiledTime(p *workloads.Program, opt profiler.Options) (time.Duration, *profiler.Result) {
	best := time.Duration(1<<62 - 1)
	var res *profiler.Result
	for i := 0; i < timingRuns; i++ {
		prof := profiler.New(p.M, opt)
		in := interp.New(p.M, prof, interp.WithPool(mem.Default))
		start := time.Now()
		in.Run()
		r := prof.Result()
		if d := time.Since(start); d < best {
			best = d
			res = r
		}
		in.Release()
	}
	return best, res
}

// slowdown computes profiled/native with a floor on the native time to
// keep tiny workloads from exploding the ratio.
func slowdown(profiled, native time.Duration) float64 {
	n := native.Seconds()
	if n < 1e-6 {
		n = 1e-6
	}
	return profiled.Seconds() / n
}

// Table2_6 measures false-positive and false-negative rates of the
// signature against the perfect signature for the Starbench-like suite at
// several signature sizes.
func Table2_6(scale int, slotSizes []int) *Result {
	res := &Result{ID: "table2.6",
		Title: "False positive and false negative rates of profiled dependences (Starbench)"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %10s", "program", "#addrs", "#deps")
	for _, s := range slotSizes {
		fmt.Fprintf(&sb, "  FPR@%.0e FNR@%.0e", float64(s), float64(s))
	}
	sb.WriteString("\n")
	for _, name := range workloads.Names("Starbench") {
		prog := workloads.MustBuild(name, scale)
		exact := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect})
		nDeps := coarseCount(exact.Deps)
		cells := map[string]float64{"deps": float64(nDeps)}
		fmt.Fprintf(&sb, "%-14s %10d %10d", name, exact.Accesses, nDeps)
		for _, s := range slotSizes {
			prog2 := workloads.MustBuild(name, scale)
			approx := profiler.Profile(prog2.M,
				profiler.Options{Store: profiler.StoreSignature, Slots: s})
			fp, fn := profiler.DiffDepsCoarse(approx.Deps, exact.Deps)
			fpr := 100 * float64(len(fp)) / float64(max(1, nDeps))
			fnr := 100 * float64(len(fn)) / float64(max(1, nDeps))
			cells[fmt.Sprintf("fpr@%d", s)] = fpr
			cells[fmt.Sprintf("fnr@%d", s)] = fnr
			fmt.Fprintf(&sb, "  %8.2f %8.2f", fpr, fnr)
		}
		sb.WriteString("\n")
		res.add(name, cells)
	}
	res.Text = sb.String()
	return res
}

// Fig2_9 measures profiler slowdown and memory for sequential NAS and
// Starbench programs: serial, 8-worker lock-based, 8-worker lock-free, and
// 16-worker lock-free configurations.
func Fig2_9(scale int) *Result {
	res := &Result{ID: "fig2.9",
		Title: "Profiler slowdown and memory, sequential NAS + Starbench"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %12s %12s %12s %10s\n",
		"program", "serial", "8T_lockbase", "8T_lockfree", "16T_lockfree", "mem16T(MB)")
	suites := append(workloads.Names("NAS"), workloads.Names("Starbench")...)
	for _, name := range suites {
		prog := workloads.MustBuild(name, scale)
		nat, _ := nativeTime(prog)
		serial, _ := profiledTime(prog, profiler.Options{Store: profiler.StoreSignature})
		lock8, _ := profiledTime(prog, profiler.Options{
			Store: profiler.StoreSignature, Workers: 8, UseLocked: true})
		free8, _ := profiledTime(prog, profiler.Options{
			Store: profiler.StoreSignature, Workers: 8})
		free16, r16 := profiledTime(prog, profiler.Options{
			Store: profiler.StoreSignature, Workers: 16})
		memMB := float64(r16.StoreBytes) / (1 << 20)
		cells := map[string]float64{
			"serial":       slowdown(serial, nat),
			"8T_lockbase":  slowdown(lock8, nat),
			"8T_lockfree":  slowdown(free8, nat),
			"16T_lockfree": slowdown(free16, nat),
			"mem16T_MB":    memMB,
		}
		res.add(name, cells)
		fmt.Fprintf(&sb, "%-14s %7.1fx %11.1fx %11.1fx %11.1fx %10.1f\n",
			name, cells["serial"], cells["8T_lockbase"], cells["8T_lockfree"],
			cells["16T_lockfree"], memMB)
	}
	fmt.Fprintf(&sb, "%-14s %7.1fx %11.1fx %11.1fx %11.1fx %10.1f\n", "average",
		res.Mean("serial"), res.Mean("8T_lockbase"), res.Mean("8T_lockfree"),
		res.Mean("16T_lockfree"), res.Mean("mem16T_MB"))
	res.Text = sb.String()
	return res
}

// Fig2_10 measures slowdown and memory when profiling multi-threaded
// (pthread-like, 4 target threads) Starbench programs, with thread IDs on
// every dependence (Options.MT), through the worker pipeline at 8 and 16
// profiling workers.
func Fig2_10(scale int) *Result {
	res := &Result{ID: "fig2.10",
		Title: "Profiler slowdown and memory, parallel Starbench (4 target threads)"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %10s %10s %12s %10s\n",
		"program", "8T,4Tn", "16T,4Tn", "mem8T(MB)", "races")
	for _, name := range workloads.Names("Starbench-MT") {
		prog := workloads.MustBuild(name, scale)
		nat, _ := nativeTime(prog)
		t8, r8 := profiledTime(prog, profiler.Options{
			Store: profiler.StoreSignature, MT: true, Workers: 8})
		t16, _ := profiledTime(prog, profiler.Options{
			Store: profiler.StoreSignature, MT: true, Workers: 16})
		cells := map[string]float64{
			"8T":     slowdown(t8, nat),
			"16T":    slowdown(t16, nat),
			"mem_MB": float64(r8.StoreBytes) / (1 << 20),
			"races":  float64(r8.Races),
		}
		res.add(name, cells)
		fmt.Fprintf(&sb, "%-18s %9.1fx %9.1fx %12.1f %10.0f\n",
			name, cells["8T"], cells["16T"], cells["mem_MB"], cells["races"])
	}
	fmt.Fprintf(&sb, "%-18s %9.1fx %9.1fx\n", "average", res.Mean("8T"), res.Mean("16T"))
	res.Text = sb.String()
	return res
}

// Fig2_12 measures the effect of skipping repeatedly executed memory
// operations: serial exact-store profiling with and without the
// optimization (the paper's setup: non-approximate shadow memory,
// sequential profiler).
func Fig2_12(scale int) *Result {
	res := &Result{ID: "fig2.12",
		Title: "Slowdown with (DiscoPoP+opt) and without (DiscoPoP) loop skipping"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %12s %10s\n", "program", "plain", "with-skip", "reduction")
	suites := append(workloads.Names("NAS"), workloads.Names("Starbench")...)
	for _, name := range suites {
		prog := workloads.MustBuild(name, scale)
		nat, _ := nativeTime(prog)
		plain, plainRes := profiledTime(prog, profiler.Options{Store: profiler.StorePerfect})
		skip, skipRes := profiledTime(prog, profiler.Options{Store: profiler.StorePerfect, Skip: true})
		// Verify the optimization is lossless before reporting it.
		fp, fn := profiler.DiffDeps(skipRes.Deps, plainRes.Deps)
		if len(fp) != 0 || len(fn) != 0 {
			panic(fmt.Sprintf("fig2.12: %s: skip changed dependences (fp=%d fn=%d)",
				name, len(fp), len(fn)))
		}
		sPlain, sSkip := slowdown(plain, nat), slowdown(skip, nat)
		redPct := 100 * (1 - sSkip/sPlain)
		res.add(name, map[string]float64{
			"plain": sPlain, "skip": sSkip, "reduction_pct": redPct})
		fmt.Fprintf(&sb, "%-14s %9.1fx %11.1fx %9.1f%%\n", name, sPlain, sSkip, redPct)
	}
	fmt.Fprintf(&sb, "%-14s %9.1fx %11.1fx %9.1f%%\n", "average",
		res.Mean("plain"), res.Mean("skip"), res.Mean("reduction_pct"))
	res.Text = sb.String()
	return res
}

// Table2_7 reports the fraction of dependence-relevant memory instructions
// the skipping optimization elides, per benchmark and access kind.
func Table2_7(scale int) *Result {
	res := &Result{ID: "table2.7",
		Title: "Dep-relevant memory instructions skipped by the profiler"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %10s %12s %10s %10s\n",
		"program", "dep-reads", "skipped%", "dep-writes", "skipped%", "total%")
	suites := append(workloads.Names("NAS"), workloads.Names("Starbench")...)
	for _, name := range suites {
		prog := workloads.MustBuild(name, scale)
		r := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect, Skip: true})
		s := r.Skip
		rp := pct(s.SkippedDepReads, s.DepReads)
		wp := pct(s.SkippedDepWrite, s.DepWrites)
		tp := pct(s.SkippedDepReads+s.SkippedDepWrite, s.DepReads+s.DepWrites)
		res.add(name, map[string]float64{"read_pct": rp, "write_pct": wp, "total_pct": tp})
		fmt.Fprintf(&sb, "%-14s %12d %9.2f%% %12d %9.2f%% %9.2f%%\n",
			name, s.DepReads, rp, s.DepWrites, wp, tp)
	}
	fmt.Fprintf(&sb, "%-14s %12s %9.2f%% %12s %9.2f%% %9.2f%%\n", "average", "",
		res.Mean("read_pct"), "", res.Mean("write_pct"), res.Mean("total_pct"))
	res.Text = sb.String()
	return res
}

// Fig2_13 reports the distribution of skipped instructions by the type of
// dependence they would have created, including FT's WAW anomaly caused by
// its dummy variable (Figure 2.14).
func Fig2_13(scale int) *Result {
	res := &Result{ID: "fig2.13",
		Title: "Distribution of skipped instructions by would-be dependence type"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s\n", "program", "RAW%", "WAW%", "WAR%")
	suites := append(workloads.Names("NAS"), workloads.Names("Starbench")...)
	for _, name := range suites {
		prog := workloads.MustBuild(name, scale)
		r := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect, Skip: true})
		s := r.Skip
		tot := s.WouldRAW + s.WouldWAR + s.WouldWAW
		raw, war, waw := pct(s.WouldRAW, tot), pct(s.WouldWAR, tot), pct(s.WouldWAW, tot)
		res.add(name, map[string]float64{"raw": raw, "war": war, "waw": waw})
		fmt.Fprintf(&sb, "%-14s %9.2f%% %9.2f%% %9.2f%%\n", name, raw, waw, war)
	}
	res.Text = sb.String()
	return res
}

// coarseCount counts dependences at the paper's <sink,type,source,var>
// granularity.
func coarseCount(deps map[profiler.Dep]int64) int {
	seen := map[profiler.Dep]bool{}
	for d := range deps {
		d.Reversed = false
		d.Carried = false
		d.CarriedBy = -1
		seen[d] = true
	}
	return len(seen)
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
