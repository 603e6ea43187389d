package main

import (
	"fmt"
	"math"
	"math/rand"

	"discopop"
)

// Loop labels, in the spelling job results use for suggestion kinds.
// labelNone marks a loop that must not be reported as a parallel loop.
const (
	labelDOALL     = "DOALL"
	labelReduction = "DOALL(reduction)"
	labelNone      = "none"
)

// Kernel patterns of the generator. They are the five dependence shapes
// dp-serve's inline specs also offer, so module and inline jobs exercise
// the same discovery rules.
var patterns = []string{"doall", "reduction", "recurrence", "histogram", "stencil"}

// genLoop is one generated loop with its label by construction.
type genLoop struct {
	Loc  string // "<file>:<line>" of the loop header, as results print it
	Want string
}

// kernelSpec is one kernel of a generated module. Rows > 1 wraps the
// kernel in an outer loop over independent rows (a two-deep nest).
type kernelSpec struct {
	Pattern string
	N       int
	Rows    int
}

// genModule is a generated module with the truth of every loop in it.
type genModule struct {
	Name    string
	Kernels []kernelSpec
	Mod     *discopop.Module
	Loops   []genLoop
}

// logUniform draws an integer from [lo, hi] with a uniform logarithm, so
// small and large kernels are equally likely per octave.
func logUniform(r *rand.Rand, lo, hi int) int {
	x := math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	n := int(x + 0.5)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// randKernels draws 1..maxKernels kernel specs with n in [minN, maxN].
// nest allows two-deep nests; their total iteration count stays n.
func randKernels(r *rand.Rand, maxKernels, minN, maxN int, nest bool) []kernelSpec {
	ks := make([]kernelSpec, 1+r.Intn(maxKernels))
	for i := range ks {
		k := kernelSpec{Pattern: patterns[r.Intn(len(patterns))], N: logUniform(r, minN, maxN), Rows: 1}
		if nest && r.Intn(4) == 0 {
			k.Rows = 2 + r.Intn(7)
			k.N = max(k.N/k.Rows, 4)
		}
		ks[i] = k
	}
	return ks
}

// buildModule assembles the module described by the kernel specs on the
// public builder API and labels every loop. Labels follow the paper's
// Table 4.3: loops with independent iterations (doall, stencil,
// initialisation, and the row loop of a nest, whose rows share nothing)
// are DOALL; sums and histogram binning are DOALL with a reduction; a
// first-order recurrence is not a parallel loop.
func buildModule(name string, kernels []kernelSpec) *genModule {
	g := &genModule{Name: name, Kernels: kernels}
	b := discopop.NewBuilder(name)
	var emit []func(fb *discopop.FuncBuilder)
	label := func(r *discopop.Region, want string) {
		g.Loops = append(g.Loops, genLoop{Loc: r.Start.String(), Want: want})
	}
	for ki, k := range kernels {
		pfx := fmt.Sprintf("k%d_", ki)
		n, rows := int64(k.N), int64(k.Rows)
		total := int(n * rows)
		// rowLoop runs body once per row with the row's base offset; a
		// single-row kernel has no outer loop.
		rowLoop := func(fb *discopop.FuncBuilder, outer string, body func(base func() discopop.Expr)) {
			if rows == 1 {
				body(func() discopop.Expr { return discopop.CI(0) })
				return
			}
			r := fb.For(pfx+"r", discopop.CI(0), discopop.CI(rows), discopop.CI(1), func(row *discopop.Var) {
				body(func() discopop.Expr { return discopop.Mul(discopop.V(row), discopop.CI(n)) })
			})
			label(r, outer)
		}
		// base builds a fresh expression per use: statements must not share
		// reference nodes, which carry one static operation id each.
		at := func(base func() discopop.Expr, i discopop.Expr) discopop.Expr { return discopop.Add(base(), i) }
		fill := func(fb *discopop.FuncBuilder, arr *discopop.Var, elems int) {
			r := fb.For(pfx+"init", discopop.CI(0), discopop.CI(int64(elems)), discopop.CI(1), func(i *discopop.Var) {
				fb.SetAt(arr, discopop.V(i), discopop.Rnd())
			})
			label(r, labelDOALL)
		}
		switch k.Pattern {
		case "doall":
			a := b.GlobalArray(pfx+"a", discopop.F64, total)
			emit = append(emit, func(fb *discopop.FuncBuilder) {
				rowLoop(fb, labelDOALL, func(base func() discopop.Expr) {
					r := fb.For(pfx+"i", discopop.CI(0), discopop.CI(n), discopop.CI(1), func(i *discopop.Var) {
						fb.SetAt(a, at(base, discopop.V(i)), discopop.Mul(discopop.CF(1.5), discopop.V(i)))
					})
					label(r, labelDOALL)
				})
			})
		case "reduction":
			a := b.GlobalArray(pfx+"a", discopop.F64, total)
			acc := b.Global(pfx+"sum", discopop.F64)
			emit = append(emit, func(fb *discopop.FuncBuilder) {
				fill(fb, a, total)
				fb.Set(acc, discopop.CF(0))
				// The row loop of a nested sum carries the same
				// accumulator, so it is a reduction loop too.
				rowLoop(fb, labelReduction, func(base func() discopop.Expr) {
					r := fb.For(pfx+"i", discopop.CI(0), discopop.CI(n), discopop.CI(1), func(i *discopop.Var) {
						fb.Set(acc, discopop.Add(discopop.V(acc), discopop.At(a, at(base, discopop.V(i)))))
					})
					label(r, labelReduction)
				})
			})
		case "recurrence":
			a := b.GlobalArray(pfx+"a", discopop.F64, total)
			emit = append(emit, func(fb *discopop.FuncBuilder) {
				// Each row's chain starts from its own seed element, so
				// rows are independent while every chain is sequential.
				rowLoop(fb, labelDOALL, func(base func() discopop.Expr) {
					fb.SetAt(a, base(), discopop.CF(1))
					r := fb.For(pfx+"i", discopop.CI(1), discopop.CI(n), discopop.CI(1), func(i *discopop.Var) {
						fb.SetAt(a, at(base, discopop.V(i)),
							discopop.Add(discopop.At(a, at(base, discopop.Sub(discopop.V(i), discopop.CI(1)))), discopop.CF(1)))
					})
					label(r, labelNone)
				})
			})
		case "histogram":
			const bins = 32
			data := b.GlobalArray(pfx+"data", discopop.F64, total)
			hist := b.GlobalArray(pfx+"hist", discopop.F64, bins)
			emit = append(emit, func(fb *discopop.FuncBuilder) {
				bin := fb.Local(pfx+"bin", discopop.I64)
				fill(fb, data, total)
				z := fb.For(pfx+"z", discopop.CI(0), discopop.CI(bins), discopop.CI(1), func(i *discopop.Var) {
					fb.SetAt(hist, discopop.V(i), discopop.CF(0))
				})
				label(z, labelDOALL)
				rowLoop(fb, labelReduction, func(base func() discopop.Expr) {
					r := fb.For(pfx+"i", discopop.CI(0), discopop.CI(n), discopop.CI(1), func(i *discopop.Var) {
						fb.Set(bin, discopop.Floor(discopop.Mul(discopop.At(data, at(base, discopop.V(i))), discopop.CI(bins))))
						fb.SetAt(hist, discopop.V(bin), discopop.Add(discopop.At(hist, discopop.V(bin)), discopop.CF(1)))
					})
					label(r, labelReduction)
				})
			})
		case "stencil":
			in := b.GlobalArray(pfx+"in", discopop.F64, total)
			out := b.GlobalArray(pfx+"out", discopop.F64, total)
			emit = append(emit, func(fb *discopop.FuncBuilder) {
				fill(fb, in, total)
				rowLoop(fb, labelDOALL, func(base func() discopop.Expr) {
					r := fb.For(pfx+"i", discopop.CI(1), discopop.CI(n-1), discopop.CI(1), func(i *discopop.Var) {
						fb.SetAt(out, at(base, discopop.V(i)), discopop.Div(
							discopop.Add(discopop.At(in, at(base, discopop.Sub(discopop.V(i), discopop.CI(1)))),
								discopop.Add(discopop.At(in, at(base, discopop.V(i))),
									discopop.At(in, at(base, discopop.Add(discopop.V(i), discopop.CI(1)))))),
							discopop.CF(3)))
					})
					label(r, labelDOALL)
				})
			})
		default:
			panic("bench: unknown kernel pattern " + k.Pattern)
		}
	}
	fb := b.Func("main")
	for _, e := range emit {
		e(fb)
	}
	g.Mod = b.Build(fb.Done())
	return g
}

// inlineLoops is how many loops of each label one inline kernel of the
// given pattern contributes, following the kernels dp-serve assembles for
// inline specs (internal/server/inline.go): the reduction, histogram and
// stencil kernels initialise their input in a DOALL loop first, and the
// histogram also zeroes its bins in one.
func inlineLoops(pattern string) (doall, reduction, none int) {
	switch pattern {
	case "doall":
		return 1, 0, 0
	case "reduction":
		return 1, 1, 0
	case "recurrence":
		return 0, 0, 1
	case "histogram":
		return 2, 1, 0
	case "stencil":
		return 2, 0, 0
	}
	panic("bench: unknown kernel pattern " + pattern)
}
