// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (the experiment index lives in DESIGN.md; recorded outputs in
// EXPERIMENTS.md). Custom metrics carry the quantities the paper reports —
// slowdown factors, FPR/FNR percentages, skip rates, recall, speedups —
// so `go test -bench=. -benchmem` reprints the evaluation. Throughput has
// its own ledger, `go run ./bench` (ns_per_access, par_ns_per_access,
// jobs_per_s, interp.untraced_ns_per_instr ...); only the ablations below,
// which vary a design choice the benchmark holds fixed, are timed here.
package discopop_test

import (
	"fmt"
	"testing"

	"discopop"
	"discopop/internal/experiments"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

const benchScale = 1

// BenchmarkTable2_3 profiles the worked four-operation loop of Figure 2.8
// with skipping enabled: the dependence storage is touched exactly as
// often as the loop has dependences (Tables 2.3-2.5).
func BenchmarkTable2_3_WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog := workloads.MustBuild("EP", benchScale)
		res := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect, Skip: true})
		b.ReportMetric(float64(len(res.Deps)), "deps")
	}
}

// BenchmarkTable2_6 measures signature FPR/FNR against the perfect
// signature at three sizes.
func BenchmarkTable2_6_SignatureAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2_6(benchScale, []int{1 << 10, 1 << 14, 1 << 20})
		b.ReportMetric(r.Mean("fpr@1024"), "FPR%@1k")
		b.ReportMetric(r.Mean("fpr@16384"), "FPR%@16k")
		b.ReportMetric(r.Mean("fpr@1048576"), "FPR%@1M")
		b.ReportMetric(r.Mean("fnr@1048576"), "FNR%@1M")
	}
}

// BenchmarkFig2_9 measures profiler slowdown/memory on sequential targets
// across the serial / lock-based / lock-free configurations.
func BenchmarkFig2_9_ProfilerSlowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2_9(benchScale)
		b.ReportMetric(r.Mean("serial"), "serial-x")
		b.ReportMetric(r.Mean("8T_lockbase"), "8T-lock-x")
		b.ReportMetric(r.Mean("8T_lockfree"), "8T-free-x")
		b.ReportMetric(r.Mean("16T_lockfree"), "16T-free-x")
		b.ReportMetric(r.Mean("mem16T_MB"), "mem-MB")
	}
}

// BenchmarkFig2_10 measures the multi-threaded-target pipeline (the worker
// pipeline with lock barriers, 4 simulated target threads).
func BenchmarkFig2_10_MTTargets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2_10(benchScale)
		b.ReportMetric(r.Mean("8T"), "8T-x")
		b.ReportMetric(r.Mean("16T"), "16T-x")
		b.ReportMetric(r.Mean("mem_MB"), "mem-MB")
	}
}

// BenchmarkFig2_12 measures the loop-skipping optimization's slowdown
// reduction.
func BenchmarkFig2_12_SkipSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2_12(benchScale)
		b.ReportMetric(r.Mean("plain"), "plain-x")
		b.ReportMetric(r.Mean("skip"), "skip-x")
		b.ReportMetric(r.Mean("reduction_pct"), "saved%")
	}
}

// BenchmarkTable2_7 measures the fraction of dependence-relevant
// instructions skipped (paper: 80.06% on average).
func BenchmarkTable2_7_SkipRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2_7(benchScale)
		b.ReportMetric(r.Mean("read_pct"), "reads%")
		b.ReportMetric(r.Mean("write_pct"), "writes%")
		b.ReportMetric(r.Mean("total_pct"), "total%")
	}
}

// BenchmarkFig2_13 measures the would-be dependence-type distribution of
// skipped instructions.
func BenchmarkFig2_13_SkipDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2_13(benchScale)
		b.ReportMetric(r.Mean("raw"), "RAW%")
		b.ReportMetric(r.Mean("war"), "WAR%")
		b.ReportMetric(r.Mean("waw"), "WAW%")
	}
}

// BenchmarkTable4_1 measures DOALL detection recall on NAS (paper: 92.5%).
func BenchmarkTable4_1_NASLoops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_1(benchScale)
		b.ReportMetric(r.Mean("recall"), "recall%")
		b.ReportMetric(r.Mean("false_pos"), "falsepos")
	}
}

// BenchmarkTable4_2 measures textbook-program speedups at 4 threads.
func BenchmarkTable4_2_Textbook(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_2(benchScale, 4)
		b.ReportMetric(r.Mean("speedup"), "speedup-x")
	}
}

// BenchmarkTable4_3 regenerates the histogram suggestion list.
func BenchmarkTable4_3_Histogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_3(benchScale)
		b.ReportMetric(float64(len(r.Rows)), "suggestions")
	}
}

// BenchmarkTable4_4 measures hot-loop classification accuracy (DOACROSS
// study).
func BenchmarkTable4_4_HotLoops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_4(benchScale)
		b.ReportMetric(100*r.Mean("match"), "correct%")
	}
}

// BenchmarkTable4_5 analyzes the block compressors.
func BenchmarkTable4_5_Compressors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_5(benchScale, 4)
		b.ReportMetric(r.Mean("speedup"), "speedup-x")
		b.ReportMetric(r.Mean("suggestions"), "suggestions")
	}
}

// BenchmarkTable4_6 measures BOTS task-decision accuracy (paper: 20/20).
func BenchmarkTable4_6_BOTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_6(benchScale)
		b.ReportMetric(100*r.Mean("correct"), "correct%")
	}
}

// BenchmarkTable4_7 measures MPMD detection on the pipeline applications.
func BenchmarkTable4_7_MPMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4_7(benchScale)
		b.ReportMetric(100*r.Mean("found"), "found%")
		b.ReportMetric(r.Mean("tasks"), "tasks")
	}
}

// BenchmarkFig4_11 regenerates the FaceDetection scaling curve (paper:
// 9.92x at 32 threads).
func BenchmarkFig4_11_FaceDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4_11(benchScale)
		for _, row := range r.Rows {
			if row.Label == "32" {
				b.ReportMetric(row.Cells["speedup"], "speedup@32")
			}
			if row.Label == "8" {
				b.ReportMetric(row.Cells["speedup"], "speedup@8")
			}
		}
	}
}

// BenchmarkTable5_3 trains and evaluates the DOALL classifier.
func BenchmarkTable5_3_Classifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5_2_5_3(benchScale)
		for _, row := range r.Rows {
			if row.Label == "score:all" {
				b.ReportMetric(row.Cells["f1"], "F1")
				b.ReportMetric(row.Cells["accuracy"], "accuracy")
			}
		}
	}
}

// BenchmarkTable5_4 derives STM transaction counts from dependence output.
func BenchmarkTable5_4_STM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5_4(benchScale)
		b.ReportMetric(r.Mean("transactions"), "tx/prog")
	}
}

// BenchmarkFig5_1 derives communication matrices from MT profiles.
func BenchmarkFig5_1_CommPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5_1(benchScale)
		b.ReportMetric(r.Mean("cross_thread"), "crossdeps")
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationChunkSize varies the producer/consumer chunk size of
// the parallel profiler ("whose size can be configured in the interest of
// scalability", §2.3.3).
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chunk := range []int{64, 1024, 8192} {
		b.Run(sizeName(chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := workloads.MustBuild("CG", benchScale)
				profiler.Profile(prog.M, profiler.Options{
					Store: profiler.StorePerfect, Workers: 4, ChunkSize: chunk})
			}
		})
	}
}

// BenchmarkAblationStoreKind compares the exact store against signatures
// of two sizes — the accuracy/speed/memory trade of §2.3.2.
func BenchmarkAblationStoreKind(b *testing.B) {
	configs := []struct {
		name string
		opt  profiler.Options
	}{
		{"perfect", profiler.Options{Store: profiler.StorePerfect}},
		{"sig-64k", profiler.Options{Store: profiler.StoreSignature, Slots: 1 << 16}},
		{"sig-4M", profiler.Options{Store: profiler.StoreSignature, Slots: 1 << 22}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				prog := workloads.MustBuild("kmeans", benchScale)
				res := profiler.Profile(prog.M, cfg.opt)
				bytes = res.StoreBytes
			}
			b.ReportMetric(float64(bytes)/(1<<20), "store-MB")
		})
	}
}

// BenchmarkAblationCUMethod compares top-down (Algorithm 3) against
// bottom-up CU construction (§3.2.3's granularity discussion).
func BenchmarkAblationCUMethod(b *testing.B) {
	for _, bottomUp := range []bool{false, true} {
		name := "topdown"
		if bottomUp {
			name = "bottomup"
		}
		b.Run(name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				prog := workloads.MustBuild("CG", benchScale)
				rep := discopop.Analyze(prog.M, discopop.Options{BottomUpCUs: bottomUp})
				n = len(rep.CUs.CUs)
			}
			b.ReportMetric(float64(n), "CUs")
		})
	}
}

// BenchmarkAblationSkipOverhead isolates the cost of the skip conditions
// on a workload that cannot skip (addresses change every access).
func BenchmarkAblationSkipOverhead(b *testing.B) {
	for _, skip := range []bool{false, true} {
		name := "noskip"
		if skip {
			name = "skip"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := workloads.MustBuild("rotate", benchScale)
				profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect, Skip: skip})
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<10:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
