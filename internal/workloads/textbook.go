package workloads

import "discopop/internal/ir"

// Textbook programs (Tables 4.2/4.3) and the gzip/bzip2-like block
// compressors of Table 4.5.

func init() {
	register("histogram", "textbook", buildHistogram)
	register("mandelbrot", "textbook", buildMandelbrot)
	register("matmul", "textbook", buildMatmul)
	register("montecarlo-pi", "textbook", buildMonteCarloPi)
	register("nbody", "textbook", buildNBody)
	register("prefix-sum", "textbook", buildPrefixSum)
	register("gzip", "compressor", buildGzip)
	register("bzip2", "compressor", buildBzip2)
}

// buildHistogram is the histogram-visualization program of Table 4.3: a
// fill loop, a binning loop with indirect reduction writes, and a scaling
// loop for display.
func buildHistogram(scale int) *Program {
	n := sc(scale, 3000)
	bins := 32
	var t Truth
	b := ir.NewBuilder("histogram")
	data := b.GlobalArray("data", ir.F64, n)
	hist := b.GlobalArray("hist", ir.F64, bins)
	maxv := b.Global("maxcount", ir.F64)
	fb := b.Func("main")
	bin := fb.Local("bin", ir.I64)
	fillRand(fb, data, n, &t)
	fb.For("z", ir.CI(0), ir.CI(int64(bins)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(hist, ir.V(i), ir.CF(0))
	})
	count := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.Set(bin, ir.Floor(ir.Mul(ir.At(data, ir.V(i)), ir.CI(int64(bins)))))
		fb.SetAt(hist, ir.V(bin), ir.Add(ir.At(hist, ir.V(bin)), ir.CF(1)))
	})
	t.DOALL = append(t.DOALL, count) // histogram reduction
	t.Hot = count
	fb.Set(maxv, ir.CF(0))
	maxLoop := fb.For("j", ir.CI(0), ir.CI(int64(bins)), ir.CI(1), func(j *ir.Var) {
		fb.Set(maxv, ir.Max(ir.V(maxv), ir.At(hist, ir.V(j))))
	})
	t.DOALL = append(t.DOALL, maxLoop) // max reduction
	norm := fb.For("j", ir.CI(0), ir.CI(int64(bins)), ir.CI(1), func(j *ir.Var) {
		fb.SetAt(hist, ir.V(j), ir.Div(ir.At(hist, ir.V(j)), ir.Add(ir.V(maxv), ir.CF(1e-9))))
	})
	t.DOALL = append(t.DOALL, norm)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildMandelbrot iterates the complex map per pixel — independent pixels
// with an inner sequential escape-time loop.
func buildMandelbrot(scale int) *Program {
	px := sc(scale, 500)
	maxIter := 24
	var t Truth
	b := ir.NewBuilder("mandelbrot")
	out := b.GlobalArray("out", ir.F64, px)
	fb := b.Func("main")
	zr := fb.Local("zr", ir.F64)
	zi := fb.Local("zi", ir.F64)
	tr := fb.Local("tr", ir.F64)
	cnt := fb.Local("cnt", ir.F64)
	hot := fb.For("p", ir.CI(0), ir.CI(int64(px)), ir.CI(1), func(p *ir.Var) {
		fb.Set(zr, ir.CF(0))
		fb.Set(zi, ir.CF(0))
		fb.Set(cnt, ir.CF(0))
		esc := fb.For("it", ir.CI(0), ir.CI(int64(maxIter)), ir.CI(1), func(it *ir.Var) {
			fb.If(ir.Lt(ir.Add(ir.Mul(ir.V(zr), ir.V(zr)), ir.Mul(ir.V(zi), ir.V(zi))),
				ir.CF(4)), func() {
				fb.Set(tr, ir.Sub(ir.Mul(ir.V(zr), ir.V(zr)), ir.Mul(ir.V(zi), ir.V(zi))))
				fb.Set(zi, ir.Add(ir.Mul(ir.CF(2), ir.Mul(ir.V(zr), ir.V(zi))),
					ir.Div(ir.V(p), ir.CI(int64(px)))))
				fb.Set(zr, ir.Add(ir.V(tr), ir.CF(-0.6)))
				fb.Set(cnt, ir.Add(ir.V(cnt), ir.CF(1)))
			})
		})
		t.Seq = append(t.Seq, esc)
		fb.SetAt(out, ir.V(p), ir.V(cnt))
	})
	t.DOALL = append(t.DOALL, hot)
	t.Hot = hot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildMatmul is the dense triple loop: DOALL over rows and columns with
// an inner dot-product reduction.
func buildMatmul(scale int) *Program {
	n := 18 + 2*scale
	var t Truth
	b := ir.NewBuilder("matmul")
	a := b.GlobalArray("A", ir.F64, n*n)
	bm := b.GlobalArray("B", ir.F64, n*n)
	cm := b.GlobalArray("C", ir.F64, n*n)
	fb := b.Func("main")
	s := fb.Local("s", ir.F64)
	fillRand(fb, a, n*n, &t)
	fillRand(fb, bm, n*n, &t)
	rows := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		cols := fb.For("j", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(j *ir.Var) {
			fb.Set(s, ir.CF(0))
			dot := fb.For("k", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(k *ir.Var) {
				fb.Set(s, ir.Add(ir.V(s), ir.Mul(
					ir.At(a, ir.Add(ir.Mul(ir.V(i), ir.CI(int64(n))), ir.V(k))),
					ir.At(bm, ir.Add(ir.Mul(ir.V(k), ir.CI(int64(n))), ir.V(j))))))
			})
			t.DOALL = append(t.DOALL, dot)
			fb.SetAt(cm, ir.Add(ir.Mul(ir.V(i), ir.CI(int64(n))), ir.V(j)), ir.V(s))
		})
		t.DOALL = append(t.DOALL, cols)
	})
	t.DOALL = append(t.DOALL, rows)
	t.Hot = rows
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildMonteCarloPi samples points and counts hits — a pure reduction loop.
func buildMonteCarloPi(scale int) *Program {
	n := sc(scale, 6000)
	var t Truth
	b := ir.NewBuilder("montecarlo-pi")
	hits := b.Global("hits", ir.F64)
	pi := b.Global("pi", ir.F64)
	fb := b.Func("main")
	x := fb.Local("x", ir.F64)
	y := fb.Local("y", ir.F64)
	fb.Set(hits, ir.CF(0))
	hot := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.Set(x, ir.Rnd())
		fb.Set(y, ir.Rnd())
		fb.If(ir.Le(ir.Add(ir.Mul(ir.V(x), ir.V(x)), ir.Mul(ir.V(y), ir.V(y))), ir.CF(1)), func() {
			fb.Set(hits, ir.Add(ir.V(hits), ir.CF(1)))
		})
	})
	t.DOALL = append(t.DOALL, hot)
	t.Hot = hot
	fb.Set(pi, ir.Div(ir.Mul(ir.CF(4), ir.V(hits)), ir.CI(int64(n))))
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildNBody computes pairwise forces (DOALL over bodies with an inner
// reduction) and integrates positions (DOALL).
func buildNBody(scale int) *Program {
	n := sc(scale, 80)
	steps := 3
	var t Truth
	b := ir.NewBuilder("nbody")
	pos := b.GlobalArray("pos", ir.F64, n)
	vel := b.GlobalArray("vel", ir.F64, n)
	force := b.GlobalArray("force", ir.F64, n)
	fb := b.Func("main")
	f := fb.Local("f", ir.F64)
	d := fb.Local("d", ir.F64)
	fillRand(fb, pos, n, &t)
	fillLinear(fb, vel, n, 0, 0, &t)
	stepLoop := fb.For("s", ir.CI(0), ir.CI(int64(steps)), ir.CI(1), func(sv *ir.Var) {
		forces := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
			fb.Set(f, ir.CF(0))
			pair := fb.For("j", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(j *ir.Var) {
				fb.Set(d, ir.Sub(ir.At(pos, ir.V(j)), ir.At(pos, ir.V(i))))
				fb.Set(f, ir.Add(ir.V(f), ir.Div(ir.V(d),
					ir.Add(ir.Mul(ir.V(d), ir.V(d)), ir.CF(0.01)))))
			})
			t.DOALL = append(t.DOALL, pair)
			fb.SetAt(force, ir.V(i), ir.V(f))
		})
		t.DOALL = append(t.DOALL, forces)
		if t.Hot == nil {
			t.Hot = forces
		}
		integ := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(vel, ir.V(i), ir.Add(ir.At(vel, ir.V(i)),
				ir.Mul(ir.CF(0.01), ir.At(force, ir.V(i)))))
			fb.SetAt(pos, ir.V(i), ir.Add(ir.At(pos, ir.V(i)),
				ir.Mul(ir.CF(0.01), ir.At(vel, ir.V(i)))))
		})
		t.DOALL = append(t.DOALL, integ)
	})
	t.Seq = append(t.Seq, stepLoop)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildPrefixSum is the inherently sequential textbook counterexample.
func buildPrefixSum(scale int) *Program {
	n := sc(scale, 4000)
	var t Truth
	b := ir.NewBuilder("prefix-sum")
	a := b.GlobalArray("a", ir.F64, n)
	fb := b.Func("main")
	fillRand(fb, a, n, &t)
	hot := fb.For("i", ir.CI(1), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(a, ir.V(i), ir.Add(ir.At(a, ir.V(i)), ir.At(a, ir.Sub(ir.V(i), ir.CI(1)))))
	})
	t.Seq = append(t.Seq, hot)
	t.Hot = hot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// blockCompressor models gzip/bzip2 (Table 4.5): a block loop in which
// reading advances the input cursor (carried), per-block compression is
// heavy and independent, and output writing is ordered. The key suggestion
// — compress blocks in parallel, as pigz/pbzip2 do — appears as DOACROSS
// on the block loop with the compression CUs in the parallel stage.
func blockCompressor(name string, blocks, blockWork int, perBlockLoops int) BuilderFunc {
	return func(scale int) *Program {
		nb := sc(scale, blocks)
		var t Truth
		b := ir.NewBuilder(name)
		in := b.GlobalArray("input", ir.F64, nb*blockWork)
		dict := b.GlobalArray("dict", ir.F64, 64)
		out := b.GlobalArray("output", ir.F64, nb)
		cursor := b.Global("cursor", ir.F64)
		outpos := b.Global("outpos", ir.F64)

		fb := b.Func("main")
		chk := fb.Local("chk", ir.F64)
		fillRand(fb, in, nb*blockWork, &t)
		fb.Set(cursor, ir.CF(0))
		fb.Set(outpos, ir.CF(0))
		blockLoop := fb.For("blk", ir.CI(0), ir.CI(int64(nb)), ir.CI(1), func(blk *ir.Var) {
			// Read: cursor advance (carried stage).
			fb.Set(chk, ir.At(in, ir.Mod(ir.V(cursor), ir.CI(int64(nb*blockWork)))))
			fb.Set(cursor, ir.Add(ir.V(cursor), ir.CI(int64(blockWork))))
			// Compress: per-block dictionary matching, independent across
			// blocks (each block uses its own window).
			for l := 0; l < perBlockLoops; l++ {
				match := fb.For("w", ir.CI(0), ir.CI(int64(blockWork)), ir.CI(1), func(w *ir.Var) {
					idx := ir.Add(ir.Mul(ir.V(blk), ir.CI(int64(blockWork))), ir.V(w))
					fb.SetAt(dict, ir.Mod(ir.V(w), ir.CI(64)),
						ir.Add(ir.At(in, idx), ir.Mul(ir.V(chk), ir.CF(0.001))))
					fb.Set(chk, ir.Add(ir.V(chk), ir.At(dict, ir.Mod(ir.V(w), ir.CI(64)))))
				})
				t.Seq = append(t.Seq, match)
			}
			// Write: ordered output (carried stage).
			fb.SetAt(out, ir.V(blk), ir.V(chk))
			fb.Set(outpos, ir.Add(ir.V(outpos), ir.CF(1)))
		})
		t.DOACROSS = append(t.DOACROSS, blockLoop)
		t.Hot = blockLoop
		mainFn := fb.Done()
		return &Program{M: b.Build(mainFn), Truth: t}
	}
}

var (
	buildGzip  = blockCompressor("gzip", 24, 48, 1)
	buildBzip2 = blockCompressor("bzip2", 16, 64, 2)
)
