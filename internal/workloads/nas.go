package workloads

import "discopop/internal/ir"

// NAS-like kernels. Each reproduces the characteristic loop and dependence
// structure of its namesake from the SNU NAS Parallel Benchmarks.

func init() {
	register("EP", "NAS", buildEP)
	register("CG", "NAS", buildCG)
	register("FT", "NAS", buildFT)
	register("IS", "NAS", buildIS)
	register("MG", "NAS", buildMG)
	register("LU", "NAS", buildLU)
	register("SP", "NAS", buildSP)
	register("BT", "NAS", buildBT)
}

// buildEP models the embarrassingly parallel kernel: independent Gaussian
// pair generation with sum reductions and a ten-bin histogram of indirect
// reduction writes.
func buildEP(scale int) *Program {
	n := sc(scale, 4000)
	var t Truth
	b := ir.NewBuilder("ep")
	sx := b.Global("sx", ir.F64)
	sy := b.Global("sy", ir.F64)
	q := b.GlobalArray("q", ir.F64, 10)

	fb := b.Func("main")
	x := fb.Local("x", ir.F64)
	y := fb.Local("y", ir.F64)
	tv := fb.Local("t", ir.F64)
	bin := fb.Local("bin", ir.I64)
	fb.Set(sx, ir.CF(0))
	fb.Set(sy, ir.CF(0))
	fb.For("qi", ir.CI(0), ir.CI(10), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(q, ir.V(i), ir.CF(0))
	})
	main := fb.For("k", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(k *ir.Var) {
		fb.Set(x, ir.Sub(ir.Mul(ir.CF(2), ir.Rnd()), ir.CF(1)))
		fb.Set(y, ir.Sub(ir.Mul(ir.CF(2), ir.Rnd()), ir.CF(1)))
		fb.Set(tv, ir.Add(ir.Mul(ir.V(x), ir.V(x)), ir.Mul(ir.V(y), ir.V(y))))
		fb.If(ir.Le(ir.V(tv), ir.CF(1)), func() {
			// sx/sy are classic sum reductions; q is an indirect
			// (histogram) reduction.
			fb.Set(sx, ir.Add(ir.V(sx), ir.Mul(ir.V(x), ir.Sqrt(ir.V(tv)))))
			fb.Set(sy, ir.Add(ir.V(sy), ir.Mul(ir.V(y), ir.Sqrt(ir.V(tv)))))
			fb.Set(bin, ir.Floor(ir.Mul(ir.V(tv), ir.CI(10))))
			fb.SetAt(q, ir.V(bin), ir.Add(ir.At(q, ir.V(bin)), ir.CF(1)))
		})
	})
	t.DOALL = append(t.DOALL, main)
	t.Hot = main
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildCG models the conjugate-gradient kernel: an inherently sequential
// outer solver iteration around a sparse matrix-vector product (DOALL over
// rows with an inner sum reduction), dot-product reductions, and axpy
// updates.
func buildCG(scale int) *Program {
	rows := sc(scale, 160)
	nnzPerRow := 8
	iters := 6
	var t Truth
	b := ir.NewBuilder("cg")
	a := b.GlobalArray("a", ir.F64, rows*nnzPerRow)
	col := b.GlobalArray("colidx", ir.I64, rows*nnzPerRow)
	p := b.GlobalArray("p", ir.F64, rows)
	qv := b.GlobalArray("q", ir.F64, rows)
	r := b.GlobalArray("r", ir.F64, rows)
	rho := b.Global("rho", ir.F64)
	alpha := b.Global("alpha", ir.F64)

	fb := b.Func("main")
	sum := fb.Local("sum", ir.F64)
	fillRand(fb, a, rows*nnzPerRow, &t)
	// Column indices: pseudo-random but deterministic sparsity.
	idxInit := fb.For("ii", ir.CI(0), ir.CI(int64(rows*nnzPerRow)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(col, ir.V(i), ir.Mod(ir.Mul(ir.V(i), ir.CI(17)), ir.CI(int64(rows))))
	})
	t.DOALL = append(t.DOALL, idxInit)
	fillLinear(fb, p, rows, 0.001, 1, &t)
	fillLinear(fb, r, rows, 0.0005, 0.5, &t)

	// Outer solver loop: carried through rho/alpha/p/r — sequential.
	outer := fb.For("cgit", ir.CI(0), ir.CI(int64(iters)), ir.CI(1), func(it *ir.Var) {
		// q = A*p: DOALL over rows, inner reduction over nonzeros.
		spmv := fb.For("row", ir.CI(0), ir.CI(int64(rows)), ir.CI(1), func(row *ir.Var) {
			fb.Set(sum, ir.CF(0))
			inner := fb.For("k", ir.Mul(ir.V(row), ir.CI(int64(nnzPerRow))),
				ir.Mul(ir.Add(ir.V(row), ir.CI(1)), ir.CI(int64(nnzPerRow))), ir.CI(1),
				func(k *ir.Var) {
					fb.Set(sum, ir.Add(ir.V(sum),
						ir.Mul(ir.At(a, ir.V(k)), ir.At(p, ir.At(col, ir.V(k))))))
				})
			t.DOALL = append(t.DOALL, inner) // reduction on sum
			fb.SetAt(qv, ir.V(row), ir.V(sum))
		})
		t.DOALL = append(t.DOALL, spmv)
		if t.Hot == nil {
			t.Hot = spmv
		}
		// rho = p . q (reduction).
		fb.Set(rho, ir.CF(0))
		dot := fb.For("i", ir.CI(0), ir.CI(int64(rows)), ir.CI(1), func(i *ir.Var) {
			fb.Set(rho, ir.Add(ir.V(rho), ir.Mul(ir.At(p, ir.V(i)), ir.At(qv, ir.V(i)))))
		})
		t.DOALL = append(t.DOALL, dot)
		fb.Set(alpha, ir.Div(ir.CF(1), ir.Add(ir.V(rho), ir.CF(1e-9))))
		// r = r - alpha*q ; p = r + 0.5*p : DOALL axpy updates.
		axpy := fb.For("i", ir.CI(0), ir.CI(int64(rows)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(r, ir.V(i), ir.Sub(ir.At(r, ir.V(i)),
				ir.Mul(ir.V(alpha), ir.At(qv, ir.V(i)))))
			fb.SetAt(p, ir.V(i), ir.Add(ir.At(r, ir.V(i)),
				ir.Mul(ir.CF(0.5), ir.At(p, ir.V(i)))))
		})
		t.DOALL = append(t.DOALL, axpy)
	})
	t.Seq = append(t.Seq, outer)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildFT models the FFT kernel, including the Figure 2.14 pattern: a
// sequential seed-chasing loop whose dummy variable manufactures a chain of
// WAW dependences, followed by butterfly stages that are DOALL within a
// stage and sequential across stages.
func buildFT(scale int) *Program {
	n := 1
	for n < sc(scale, 256) {
		n <<= 1
	}
	var t Truth
	b := ir.NewBuilder("ft")

	// randlc advances the seed (by reference) and returns a value: the
	// carried RAW on the seed makes the caller's loop sequential.
	rl := b.FuncRet("randlc")
	seedP := rl.RefParam("seed", ir.F64, 1)
	rl.SetAt(seedP, ir.CI(0),
		ir.Mod(ir.Add(ir.Mul(ir.At(seedP, ir.CI(0)), ir.CF(1220703125)), ir.CF(1)), ir.CF(2147483647)))
	rl.Return(ir.Div(ir.At(seedP, ir.CI(0)), ir.CF(2147483647)))
	randlc := rl.Done()

	re := b.GlobalArray("u_re", ir.F64, n)
	im := b.GlobalArray("u_im", ir.F64, n)
	starts := b.GlobalArray("RanStarts", ir.F64, 64)

	fb := b.Func("main")
	start := fb.Array("start", ir.F64, 1)
	dummy := fb.Local("dummy", ir.F64)
	e := fb.Local("even", ir.F64)
	o := fb.Local("odd", ir.F64)
	fb.SetAt(start, ir.CI(0), ir.CF(314159265))
	// Figure 2.14: dummy = randlc(&start, an); RanStarts[k] = start.
	seedLoop := fb.For("k", ir.CI(1), ir.CI(64), ir.CI(1), func(k *ir.Var) {
		fb.CallInto(ir.V(dummy), randlc, ir.At(start, ir.CI(0)))
		fb.SetAt(starts, ir.V(k), ir.At(start, ir.CI(0)))
	})
	t.Seq = append(t.Seq, seedLoop)

	fillRand(fb, re, n, &t)
	fillRand(fb, im, n, &t)

	stages := 0
	for 1<<stages < n {
		stages++
	}
	half := fb.Local("half", ir.I64)
	mate := fb.Local("mate", ir.I64)
	fb.Set(half, ir.CI(1))
	// evolve: sequential over stages, DOALL across butterflies of a stage
	// (Figure 4.1's nested loops in function evolve).
	stageLoop := fb.For("stage", ir.CI(0), ir.CI(int64(stages)), ir.CI(1), func(s *ir.Var) {
		body := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
			fb.Set(mate, ir.Xor(ir.V(i), ir.V(half)))
			fb.If(ir.Lt(ir.V(i), ir.V(mate)), func() {
				fb.Set(e, ir.Add(ir.At(re, ir.V(i)), ir.At(re, ir.V(mate))))
				fb.Set(o, ir.Sub(ir.At(im, ir.V(i)), ir.At(im, ir.V(mate))))
				fb.SetAt(re, ir.V(i), ir.Mul(ir.V(e), ir.CF(0.5)))
				fb.SetAt(im, ir.V(mate), ir.Mul(ir.V(o), ir.CF(0.5)))
			})
		})
		t.DOALL = append(t.DOALL, body)
		if t.Hot == nil {
			t.Hot = body
		}
		fb.Set(half, ir.Mul(ir.V(half), ir.CI(2)))
	})
	t.Seq = append(t.Seq, stageLoop)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildIS models integer sort: histogram key counting (indirect
// reduction), a prefix-sum over buckets (carried recurrence), and a rank
// scatter (DOALL).
func buildIS(scale int) *Program {
	n := sc(scale, 4000)
	buckets := 64
	var t Truth
	b := ir.NewBuilder("is")
	keys := b.GlobalArray("key", ir.I64, n)
	cnt := b.GlobalArray("count", ir.F64, buckets)
	rank := b.GlobalArray("rank", ir.F64, n)

	fb := b.Func("main")
	kv := fb.Local("k", ir.I64)
	keyInit := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(keys, ir.V(i), ir.Floor(ir.Mul(ir.Rnd(), ir.CI(int64(buckets)))))
	})
	t.DOALL = append(t.DOALL, keyInit)
	fb.For("bz", ir.CI(0), ir.CI(int64(buckets)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(cnt, ir.V(i), ir.CF(0))
	})
	hist := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.Set(kv, ir.At(keys, ir.V(i)))
		fb.SetAt(cnt, ir.V(kv), ir.Add(ir.At(cnt, ir.V(kv)), ir.CF(1)))
	})
	t.DOALL = append(t.DOALL, hist) // histogram reduction
	t.Hot = hist
	// Prefix sum: count[j] += count[j-1] — a true carried recurrence.
	prefix := fb.For("j", ir.CI(1), ir.CI(int64(buckets)), ir.CI(1), func(j *ir.Var) {
		fb.SetAt(cnt, ir.V(j), ir.Add(ir.At(cnt, ir.V(j)), ir.At(cnt, ir.Sub(ir.V(j), ir.CI(1)))))
	})
	t.Seq = append(t.Seq, prefix)
	scatter := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(rank, ir.V(i), ir.At(cnt, ir.At(keys, ir.V(i))))
	})
	t.DOALL = append(t.DOALL, scatter)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildMG models the multigrid kernel: Jacobi-style smoothing sweeps and
// residual computations that read one array and write another (DOALL), with
// a sequential V-cycle driver.
func buildMG(scale int) *Program {
	n := sc(scale, 1024)
	cycles := 4
	var t Truth
	b := ir.NewBuilder("mg")
	u := b.GlobalArray("u", ir.F64, n)
	v := b.GlobalArray("v", ir.F64, n)
	r := b.GlobalArray("r", ir.F64, n)

	fb := b.Func("main")
	fillRand(fb, v, n, &t)
	fillLinear(fb, u, n, 0, 0, &t)
	vcycle := fb.For("cyc", ir.CI(0), ir.CI(int64(cycles)), ir.CI(1), func(c *ir.Var) {
		// residual: r = v - smooth(u). Reads u/v, writes r: DOALL.
		resid := fb.For("i", ir.CI(1), ir.CI(int64(n-1)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(r, ir.V(i), ir.Sub(ir.At(v, ir.V(i)),
				ir.Mul(ir.CF(0.5), ir.Add(ir.At(u, ir.Sub(ir.V(i), ir.CI(1))),
					ir.At(u, ir.Add(ir.V(i), ir.CI(1)))))))
		})
		t.DOALL = append(t.DOALL, resid)
		if t.Hot == nil {
			t.Hot = resid
		}
		// smooth: u = u + c*r. DOALL.
		smooth := fb.For("i", ir.CI(1), ir.CI(int64(n-1)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(u, ir.V(i), ir.Add(ir.At(u, ir.V(i)), ir.Mul(ir.CF(0.4), ir.At(r, ir.V(i)))))
		})
		t.DOALL = append(t.DOALL, smooth)
	})
	t.Seq = append(t.Seq, vcycle)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// adiSweep emits the BT/SP/LU family's characteristic structure: a DOALL
// loop over independent grid lines, each carrying a sequential recurrence
// along the line (forward elimination / back substitution).
func adiSweep(fb *ir.FuncBuilder, grid *ir.Var, lines, lineLen int, coeff float64, t *Truth) (outer *ir.Region) {
	outer = fb.For("line", ir.CI(0), ir.CI(int64(lines)), ir.CI(1), func(line *ir.Var) {
		inner := fb.For("j", ir.CI(1), ir.CI(int64(lineLen)), ir.CI(1), func(j *ir.Var) {
			idx := ir.Add(ir.Mul(ir.V(line), ir.CI(int64(lineLen))), ir.V(j))
			prev := ir.Sub(idx, ir.CI(1))
			fb.SetAt(grid, idx, ir.Add(ir.At(grid, idx),
				ir.Mul(ir.CF(coeff), ir.At(grid, prev))))
		})
		t.Seq = append(t.Seq, inner)
	})
	t.DOALL = append(t.DOALL, outer)
	return outer
}

func buildADI(name string, lines, lineLen, steps int, coeff float64) BuilderFunc {
	return func(scale int) *Program {
		L := sc(scale, lines)
		var t Truth
		b := ir.NewBuilder(name)
		grid := b.GlobalArray("u", ir.F64, L*lineLen)
		rhs := b.GlobalArray("rhs", ir.F64, L*lineLen)
		fb := b.Func("main")
		fillRand(fb, grid, L*lineLen, &t)
		fillRand(fb, rhs, L*lineLen, &t)
		stepLoop := fb.For("step", ir.CI(0), ir.CI(int64(steps)), ir.CI(1), func(s *ir.Var) {
			// rhs update: pure DOALL over the grid.
			upd := fb.For("i", ir.CI(0), ir.CI(int64(L*lineLen)), ir.CI(1), func(i *ir.Var) {
				fb.SetAt(rhs, ir.V(i), ir.Add(ir.Mul(ir.At(rhs, ir.V(i)), ir.CF(0.99)),
					ir.Mul(ir.At(grid, ir.V(i)), ir.CF(0.01))))
			})
			t.DOALL = append(t.DOALL, upd)
			sweep := adiSweep(fb, grid, L, lineLen, coeff, &t)
			if t.Hot == nil {
				t.Hot = sweep
			}
		})
		t.Seq = append(t.Seq, stepLoop)
		mainFn := fb.Done()
		return &Program{M: b.Build(mainFn), Truth: t}
	}
}

var (
	buildLU = buildADI("lu", 24, 32, 3, 0.25)
	buildSP = buildADI("sp", 20, 40, 3, 0.33)
	buildBT = buildADI("bt", 16, 48, 3, 0.5)
)
