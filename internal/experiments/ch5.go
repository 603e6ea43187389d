package experiments

import (
	"fmt"
	"sort"
	"strings"

	"discopop"
	"discopop/internal/comm"
	"discopop/internal/features"
	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/stm"
	"discopop/internal/workloads"
)

// Table5_2_5_3 trains the AdaBoost DOALL classifier on loops extracted
// from all sequential suites and reports feature importance (Table 5.2)
// and held-out classification scores for pragma and non-pragma loop groups
// (Table 5.3).
func Table5_2_5_3(scale int) *Result {
	res := &Result{ID: "table5.2+5.3", Title: "DOALL loop classification (features + AdaBoost)"}
	var names []string
	for _, suite := range []string{"NAS", "Starbench", "textbook", "compressor", "MPMD"} {
		names = append(names, workloads.Names(suite)...)
	}
	// Stream the whole-corpus sweep: features are extracted as each job
	// completes and the report is dropped, so peak memory stays at one
	// report per pool worker. Samples are reassembled in submission order
	// to keep the train/eval split deterministic.
	sampleSets := make([][]features.Sample, len(names))
	analyzeStream(names, scale, func(i int, prog *workloads.Program, rep *discopop.Report) {
		fs := features.Extract(prog.M, rep.Scope, rep.Profile)
		doall := map[*ir.Region]bool{}
		for _, r := range prog.Truth.DOALL {
			doall[r] = true
		}
		hot := map[*ir.Region]bool{prog.Truth.Hot: true}
		features.Label(fs, doall, hot)
		sampleSets[i] = fs
	})
	var samples []features.Sample
	for _, fs := range sampleSets {
		samples = append(samples, fs...)
	}
	train, eval := features.Split(samples, 4)
	ens := features.Train(train, 40)
	imp := ens.Importance()

	var sb strings.Builder
	fmt.Fprintf(&sb, "Feature importance (weighted error reduction, Table 5.2):\n")
	type fi struct {
		name string
		v    float64
	}
	var fis []fi
	for i, n := range features.Names {
		fis = append(fis, fi{n, imp[i]})
	}
	sort.Slice(fis, func(i, j int) bool { return fis[i].v > fis[j].v })
	for _, f := range fis {
		fmt.Fprintf(&sb, "  %-22s %6.3f\n", f.name, f.v)
		res.add("imp:"+f.name, map[string]float64{"importance": f.v})
	}
	var pragma, noPragma []features.Sample
	for _, s := range eval {
		if s.Pragma {
			pragma = append(pragma, s)
		} else {
			noPragma = append(noPragma, s)
		}
	}
	all := features.Evaluate(ens, eval)
	pr := features.Evaluate(ens, pragma)
	np := features.Evaluate(ens, noPragma)
	fmt.Fprintf(&sb, "\nHeld-out classification scores (Table 5.3):\n")
	fmt.Fprintf(&sb, "  %-14s %6s %10s %10s %8s %6s\n", "group", "n", "precision", "recall", "F1", "acc")
	for _, g := range []struct {
		name string
		s    features.Scores
	}{{"all", all}, {"with pragma", pr}, {"no pragma", np}} {
		fmt.Fprintf(&sb, "  %-14s %6d %10.3f %10.3f %8.3f %6.3f\n",
			g.name, g.s.N, g.s.Precision, g.s.Recall, g.s.F1, g.s.Accuracy)
		res.add("score:"+g.name, map[string]float64{
			"n": float64(g.s.N), "precision": g.s.Precision,
			"recall": g.s.Recall, "f1": g.s.F1, "accuracy": g.s.Accuracy})
	}
	fmt.Fprintf(&sb, "  (train=%d eval=%d stumps=%d)\n", len(train), len(eval), len(ens.Stumps))
	res.Text = sb.String()
	return res
}

// Table5_4 derives the number of STM transactions per NAS benchmark from
// the profiler's output.
func Table5_4(scale int) *Result {
	res := &Result{ID: "table5.4", Title: "Number of transactions in NAS benchmarks"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %14s %12s %12s\n", "program", "transactions", "maxWriteSet", "contended")
	names := workloads.Names("NAS")
	rows := make([]stm.Params, len(names))
	analyzeStream(names, scale, func(i int, prog *workloads.Program, rep *discopop.Report) {
		rows[i] = stm.SuggestParams(stm.Derive(rep.Analysis))
	})
	for i, name := range names {
		params := rows[i]
		res.add(name, map[string]float64{"transactions": float64(params.Transactions)})
		fmt.Fprintf(&sb, "%-10s %14d %12d %12v\n",
			name, params.Transactions, params.MaxWriteSet, params.HighContention)
	}
	res.Text = sb.String()
	return res
}

// Fig5_1 derives communication patterns of the multi-threaded programs
// from the profiler's output and renders them as heat maps.
func Fig5_1(scale int) *Result {
	res := &Result{ID: "fig5.1", Title: "Communication patterns of parallel programs"}
	var sb strings.Builder
	for _, name := range workloads.Names("Starbench-MT") {
		prog := workloads.MustBuild(name, scale)
		r := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect, MT: true, Workers: 4})
		m := comm.FromProfile(r)
		res.add(name, map[string]float64{
			"threads":      float64(m.Threads),
			"cross_thread": float64(m.CrossThread()),
		})
		fmt.Fprintf(&sb, "--- %s ---\n%s\n", name, m.Render())
	}
	res.Text = sb.String()
	return res
}
