package workloads

import "discopop/internal/ir"

// BOTS-like task-parallel programs (Section 4.4.3): recursive
// decompositions and task loops whose hot spots DiscoPoP classified
// correctly in all 20 cases of Table 4.6.

func init() {
	register("fib", "BOTS", buildFib)
	register("nqueens", "BOTS", buildNQueens)
	register("sort", "BOTS", buildSort)
	register("fft", "BOTS", buildFFTBots)
	register("strassen", "BOTS", buildStrassen)
	register("sparselu", "BOTS", buildSparseLU)
	register("health", "BOTS", buildHealth)
	register("floorplan", "BOTS", buildFloorplan)
	register("alignment", "BOTS", buildAlignment)
	register("uts", "BOTS", buildUTS)
}

// buildFib is the Figure 4.3 program: fib(n) = fib(n-1) + fib(n-2), two
// independent recursive calls per invocation.
func buildFib(scale int) *Program {
	n := 12 + scale
	if n > 18 {
		n = 18
	}
	var t Truth
	b := ir.NewBuilder("fib")
	fibF := b.Forward("fib", true)
	fb := b.DefineForward(fibF)
	nn := fb.Param("n", ir.F64)
	x := fb.Local("x", ir.F64)
	y := fb.Local("y", ir.F64)
	fb.IfElse(ir.Lt(ir.V(nn), ir.CI(2)), func() {
		fb.Return(ir.V(nn))
	}, func() {
		fb.CallInto(ir.V(x), fibF, ir.Sub(ir.V(nn), ir.CI(1)))
		fb.CallInto(ir.V(y), fibF, ir.Sub(ir.V(nn), ir.CI(2)))
		fb.Return(ir.Add(ir.V(x), ir.V(y)))
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, fibF)

	res := b.Global("result", ir.F64)
	mb := b.Func("main")
	mb.CallInto(ir.V(res), fibF, ir.CI(int64(n)))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildNQueens is the Figure 4.2 pattern: a loop over candidate columns,
// each iteration validating a placement and recursing, with a solution
// counter reduction.
func buildNQueens(scale int) *Program {
	n := 6
	if scale > 1 {
		n = 7
	}
	var t Truth
	b := ir.NewBuilder("nqueens")
	sols := b.Global("solutions", ir.F64)
	board := b.GlobalArray("board", ir.F64, n)

	solve := b.Forward("solve", false)
	fb := b.DefineForward(solve)
	row := fb.Param("row", ir.F64)
	ok := fb.Local("ok", ir.F64)
	fb.IfElse(ir.Ge(ir.V(row), ir.CI(int64(n))), func() {
		fb.Set(sols, ir.Add(ir.V(sols), ir.CF(1)))
	}, func() {
		tryLoop := fb.For("col", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(col *ir.Var) {
			fb.Set(ok, ir.CF(1))
			fb.For("r", ir.CI(0), ir.V(row), ir.CI(1), func(r *ir.Var) {
				fb.If(ir.Eq(ir.At(board, ir.V(r)), ir.V(col)), func() {
					fb.Set(ok, ir.CF(0))
				})
				fb.If(ir.Eq(ir.Abs(ir.Sub(ir.At(board, ir.V(r)), ir.V(col))),
					ir.Sub(ir.V(row), ir.V(r))), func() {
					fb.Set(ok, ir.CF(0))
				})
			})
			fb.If(ir.Eq(ir.V(ok), ir.CF(1)), func() {
				fb.SetAt(board, ir.V(row), ir.V(col))
				fb.Call(solve, ir.Add(ir.V(row), ir.CI(1)))
			})
		})
		// The column loop carries the shared board state — in BOTS each
		// task privatizes the board; at this granularity the loop is the
		// task spawn site.
		_ = tryLoop
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, solve)

	mb := b.Func("main")
	mb.Set(sols, ir.CF(0))
	mb.Call(solve, ir.CI(0))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildSort models BOTS sort (mergesort): two recursive calls on disjoint
// halves followed by a merge.
func buildSort(scale int) *Program {
	n := 1 << 8
	if scale > 1 {
		n = 1 << 9
	}
	var t Truth
	b := ir.NewBuilder("sort")
	data := b.GlobalArray("data", ir.F64, n)
	tmp := b.GlobalArray("tmp", ir.F64, n)

	ms := b.Forward("msort", false)
	fb := b.DefineForward(ms)
	lo := fb.Param("lo", ir.F64)
	hi := fb.Param("hi", ir.F64)
	mid := fb.Local("mid", ir.F64)
	li := fb.Local("li", ir.F64)
	ri := fb.Local("ri", ir.F64)
	fb.If(ir.Gt(ir.Sub(ir.V(hi), ir.V(lo)), ir.CI(1)), func() {
		fb.Set(mid, ir.Floor(ir.Div(ir.Add(ir.V(lo), ir.V(hi)), ir.CI(2))))
		// Two independent recursive sorts: the SPMD task pattern.
		fb.Call(ms, ir.V(lo), ir.V(mid))
		fb.Call(ms, ir.V(mid), ir.V(hi))
		// Merge: sequential two-finger pass.
		fb.Set(li, ir.V(lo))
		fb.Set(ri, ir.V(mid))
		mergeLoop := fb.For("m", ir.V(lo), ir.V(hi), ir.CI(1), func(m *ir.Var) {
			fb.IfElse(ir.LAnd(ir.Lt(ir.V(li), ir.V(mid)),
				ir.Ne(ir.Ge(ir.V(ri), ir.V(hi)), ir.CF(0))), func() {
				fb.SetAt(tmp, ir.V(m), ir.At(data, ir.V(li)))
				fb.Set(li, ir.Add(ir.V(li), ir.CI(1)))
			}, func() {
				fb.IfElse(ir.LAnd(ir.Lt(ir.V(ri), ir.V(hi)),
					ir.Ne(ir.Ge(ir.V(li), ir.V(mid)), ir.CF(0))), func() {
					fb.SetAt(tmp, ir.V(m), ir.At(data, ir.V(ri)))
					fb.Set(ri, ir.Add(ir.V(ri), ir.CI(1)))
				}, func() {
					fb.IfElse(ir.LAnd(ir.Lt(ir.V(li), ir.V(mid)),
						ir.Le(ir.At(data, ir.V(li)), ir.At(data, ir.V(ri)))), func() {
						fb.SetAt(tmp, ir.V(m), ir.At(data, ir.V(li)))
						fb.Set(li, ir.Add(ir.V(li), ir.CI(1)))
					}, func() {
						fb.SetAt(tmp, ir.V(m), ir.At(data, ir.V(ri)))
						fb.Set(ri, ir.Add(ir.V(ri), ir.CI(1)))
					})
				})
			})
		})
		t.Seq = append(t.Seq, mergeLoop)
		copyLoop := fb.For("c", ir.V(lo), ir.V(hi), ir.CI(1), func(c *ir.Var) {
			fb.SetAt(data, ir.V(c), ir.At(tmp, ir.V(c)))
		})
		t.DOALL = append(t.DOALL, copyLoop)
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, ms)

	mb := b.Func("main")
	fillRand(mb, data, n, &t)
	mb.Call(ms, ir.CI(0), ir.CI(int64(n)))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildFFTBots models fft_twiddle_16 (Figure 4.9): recursive halving with
// independent halves plus a combining butterfly loop.
func buildFFTBots(scale int) *Program {
	n := 1 << 8
	if scale > 1 {
		n = 1 << 9
	}
	var t Truth
	b := ir.NewBuilder("fft")
	re := b.GlobalArray("re", ir.F64, n)
	im := b.GlobalArray("im", ir.F64, n)

	fft := b.Forward("fft_twiddle", false)
	fb := b.DefineForward(fft)
	lo := fb.Param("lo", ir.F64)
	cnt := fb.Param("cnt", ir.F64)
	half := fb.Local("half", ir.F64)
	er := fb.Local("er", ir.F64)
	ei := fb.Local("ei", ir.F64)
	fb.If(ir.Gt(ir.V(cnt), ir.CI(1)), func() {
		fb.Set(half, ir.Floor(ir.Div(ir.V(cnt), ir.CI(2))))
		// Independent recursive halves — the spawn sites of Figure 4.9.
		fb.Call(fft, ir.V(lo), ir.V(half))
		fb.Call(fft, ir.Add(ir.V(lo), ir.V(half)), ir.V(half))
		comb := fb.For("j", ir.CI(0), ir.V(half), ir.CI(1), func(j *ir.Var) {
			a := ir.Add(ir.V(lo), ir.V(j))
			bidx := ir.Add(ir.Add(ir.V(lo), ir.V(half)), ir.V(j))
			fb.Set(er, ir.Add(ir.At(re, a), ir.At(re, bidx)))
			fb.Set(ei, ir.Sub(ir.At(im, a), ir.At(im, bidx)))
			fb.SetAt(re, a, ir.Mul(ir.V(er), ir.CF(0.5)))
			fb.SetAt(im, bidx, ir.Mul(ir.V(ei), ir.CF(0.5)))
		})
		t.DOALL = append(t.DOALL, comb)
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, fft)

	mb := b.Func("main")
	fillRand(mb, re, n, &t)
	fillRand(mb, im, n, &t)
	mb.Call(fft, ir.CI(0), ir.CI(int64(n)))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildStrassen models the seven independent recursive block
// multiplications of Strassen's algorithm.
func buildStrassen(scale int) *Program {
	dim := 16
	if scale > 1 {
		dim = 24
	}
	var t Truth
	b := ir.NewBuilder("strassen")
	a := b.GlobalArray("A", ir.F64, dim*dim)
	bm := b.GlobalArray("B", ir.F64, dim*dim)
	cm := b.GlobalArray("C", ir.F64, dim*dim)

	mul := b.Forward("block_mul", false)
	fb := b.DefineForward(mul)
	ro := fb.Param("ro", ir.F64)
	co := fb.Param("co", ir.F64)
	sz := fb.Param("sz", ir.F64)
	s := fb.Local("s", ir.F64)
	fb.IfElse(ir.Le(ir.V(sz), ir.CI(4)), func() {
		rows := fb.For("i", ir.CI(0), ir.V(sz), ir.CI(1), func(i *ir.Var) {
			cols := fb.For("j", ir.CI(0), ir.V(sz), ir.CI(1), func(j *ir.Var) {
				fb.Set(s, ir.CF(0))
				inner := fb.For("kk", ir.CI(0), ir.V(sz), ir.CI(1), func(kk *ir.Var) {
					ai := ir.Add(ir.Mul(ir.Add(ir.V(ro), ir.V(i)), ir.CI(int64(dim))),
						ir.Add(ir.V(co), ir.V(kk)))
					bi := ir.Add(ir.Mul(ir.Add(ir.V(ro), ir.V(kk)), ir.CI(int64(dim))),
						ir.Add(ir.V(co), ir.V(j)))
					fb.Set(s, ir.Add(ir.V(s), ir.Mul(ir.At(a, ai), ir.At(bm, bi))))
				})
				t.DOALL = append(t.DOALL, inner)
				ci := ir.Add(ir.Mul(ir.Add(ir.V(ro), ir.V(i)), ir.CI(int64(dim))),
					ir.Add(ir.V(co), ir.V(j)))
				fb.SetAt(cm, ci, ir.V(s))
			})
			t.DOALL = append(t.DOALL, cols)
		})
		t.DOALL = append(t.DOALL, rows)
	}, func() {
		// Seven independent sub-multiplications (M1..M7).
		h := fb.Local("h", ir.F64)
		fb.Set(h, ir.Floor(ir.Div(ir.V(sz), ir.CI(2))))
		fb.Call(mul, ir.V(ro), ir.V(co), ir.V(h))
		fb.Call(mul, ir.Add(ir.V(ro), ir.V(h)), ir.V(co), ir.V(h))
		fb.Call(mul, ir.V(ro), ir.Add(ir.V(co), ir.V(h)), ir.V(h))
		fb.Call(mul, ir.Add(ir.V(ro), ir.V(h)), ir.Add(ir.V(co), ir.V(h)), ir.V(h))
		fb.Call(mul, ir.V(ro), ir.V(co), ir.V(h))
		fb.Call(mul, ir.Add(ir.V(ro), ir.V(h)), ir.V(co), ir.V(h))
		fb.Call(mul, ir.V(ro), ir.Add(ir.V(co), ir.V(h)), ir.V(h))
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, mul)

	mb := b.Func("main")
	fillRand(mb, a, dim*dim, &t)
	fillRand(mb, bm, dim*dim, &t)
	mb.Call(mul, ir.CI(0), ir.CI(0), ir.CI(int64(dim)))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildSparseLU models blocked LU decomposition: per elimination step, the
// diagonal factorization is sequential, the panel updates and the interior
// update are DOALL task loops.
func buildSparseLU(scale int) *Program {
	nb := 6
	bs := 8
	if scale > 1 {
		nb = 8
	}
	dim := nb * bs
	var t Truth
	b := ir.NewBuilder("sparselu")
	m := b.GlobalArray("M", ir.F64, dim*dim)
	fb := b.Func("main")
	fillRand(fb, m, dim*dim, &t)
	outer := fb.For("kk", ir.CI(0), ir.CI(int64(nb)), ir.CI(1), func(kk *ir.Var) {
		// lu0: factor the diagonal block (sequential recurrence).
		diag := fb.For("i", ir.CI(1), ir.CI(int64(bs)), ir.CI(1), func(i *ir.Var) {
			di := ir.Add(ir.Mul(ir.Add(ir.Mul(ir.V(kk), ir.CI(int64(bs))), ir.V(i)),
				ir.CI(int64(dim))), ir.Add(ir.Mul(ir.V(kk), ir.CI(int64(bs))), ir.V(i)))
			prev := ir.Sub(di, ir.CI(int64(dim+1)))
			fb.SetAt(m, di, ir.Sub(ir.At(m, di),
				ir.Mul(ir.CF(0.1), ir.At(m, prev))))
		})
		t.Seq = append(t.Seq, diag)
		// fwd/bdiv: independent panel blocks — the BOTS task loop.
		panel := fb.For("jj", ir.Add(ir.V(kk), ir.CI(1)), ir.CI(int64(nb)), ir.CI(1),
			func(jj *ir.Var) {
				inner := fb.For("i", ir.CI(0), ir.CI(int64(bs)), ir.CI(1), func(i *ir.Var) {
					idx := ir.Add(ir.Mul(ir.Add(ir.Mul(ir.V(kk), ir.CI(int64(bs))), ir.V(i)),
						ir.CI(int64(dim))), ir.Add(ir.Mul(ir.V(jj), ir.CI(int64(bs))), ir.V(i)))
					dg := ir.Add(ir.Mul(ir.Add(ir.Mul(ir.V(kk), ir.CI(int64(bs))), ir.V(i)),
						ir.CI(int64(dim))), ir.Add(ir.Mul(ir.V(kk), ir.CI(int64(bs))), ir.V(i)))
					fb.SetAt(m, idx, ir.Div(ir.At(m, idx), ir.Add(ir.At(m, dg), ir.CF(1.5))))
				})
				t.DOALL = append(t.DOALL, inner)
			})
		t.DOALL = append(t.DOALL, panel)
		if t.Hot == nil {
			t.Hot = panel
		}
	})
	t.Seq = append(t.Seq, outer)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildHealth models the hierarchical healthcare simulation: villages form
// a tree; each level simulates its patients (DOALL loop) and recurses into
// child villages (independent tasks).
func buildHealth(scale int) *Program {
	depth := 4
	if scale > 1 {
		depth = 5
	}
	var t Truth
	b := ir.NewBuilder("health")
	patients := b.GlobalArray("patients", ir.F64, 1024)
	total := b.Global("treated", ir.F64)

	sim := b.Forward("sim_village", false)
	fb := b.DefineForward(sim)
	level := fb.Param("level", ir.F64)
	id := fb.Param("id", ir.F64)
	fb.If(ir.Gt(ir.V(level), ir.CI(0)), func() {
		work := fb.For("p", ir.CI(0), ir.CI(16), ir.CI(1), func(p *ir.Var) {
			idx := ir.Mod(ir.Add(ir.Mul(ir.V(id), ir.CI(16)), ir.V(p)), ir.CI(1024))
			fb.SetAt(patients, idx, ir.Add(ir.At(patients, idx), ir.CF(0.25)))
			fb.Set(total, ir.Add(ir.V(total), ir.CF(1)))
		})
		t.DOALL = append(t.DOALL, work)
		// Two child villages: independent recursive tasks.
		fb.Call(sim, ir.Sub(ir.V(level), ir.CI(1)), ir.Mul(ir.V(id), ir.CI(2)))
		fb.Call(sim, ir.Sub(ir.V(level), ir.CI(1)),
			ir.Add(ir.Mul(ir.V(id), ir.CI(2)), ir.CI(1)))
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, sim)

	mb := b.Func("main")
	mb.Set(total, ir.CF(0))
	fillRand(mb, patients, 1024, &t)
	mb.Call(sim, ir.CI(int64(depth)), ir.CI(1))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildFloorplan models branch-and-bound placement: a candidate loop with
// a recursive call per feasible candidate and a best-cost min-reduction.
func buildFloorplan(scale int) *Program {
	depth := 6
	if scale > 1 {
		depth = 7
	}
	var t Truth
	b := ir.NewBuilder("floorplan")
	best := b.Global("best", ir.F64)
	area := b.GlobalArray("area", ir.F64, 16)

	place := b.Forward("add_cell", false)
	fb := b.DefineForward(place)
	lvl := fb.Param("level", ir.F64)
	cost := fb.Param("cost", ir.F64)
	est := fb.Local("est", ir.F64)
	fb.IfElse(ir.Le(ir.V(lvl), ir.CI(0)), func() {
		fb.Set(best, ir.Min(ir.V(best), ir.V(cost)))
	}, func() {
		cand := fb.For("c", ir.CI(0), ir.CI(3), ir.CI(1), func(c *ir.Var) {
			// Evaluate the candidate placement: a small area scan.
			fb.Set(est, ir.CF(0))
			eval := fb.For("a", ir.CI(0), ir.CI(16), ir.CI(1), func(a *ir.Var) {
				fb.Set(est, ir.Add(ir.V(est), ir.At(area, ir.V(a))))
			})
			t.DOALL = append(t.DOALL, eval)
			// Prune only clearly hopeless candidates: cost grows slowly,
			// so most of the tree is explored (branch-and-bound with a
			// weak bound, as in the BOTS input).
			fb.If(ir.Lt(ir.Add(ir.V(cost), ir.Mul(ir.V(c), ir.CF(0.01))),
				ir.Add(ir.V(best), ir.CI(2))), func() {
				fb.Call(place, ir.Sub(ir.V(lvl), ir.CI(1)),
					ir.Add(ir.V(cost), ir.Mul(ir.V(c), ir.CF(0.01))))
			})
		})
		_ = cand
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, place)

	mb := b.Func("main")
	mb.Set(best, ir.CF(1e18))
	fillRand(mb, area, 16, &t)
	mb.Call(place, ir.CI(int64(depth)), ir.CF(0))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildAlignment models pairwise sequence alignment: all pairs are
// independent (DOALL task loop); the inner dynamic-programming recurrence
// is sequential.
func buildAlignment(scale int) *Program {
	pairs := sc(scale, 20)
	seqLen := 24
	var t Truth
	b := ir.NewBuilder("alignment")
	seqs := b.GlobalArray("seqs", ir.F64, pairs*seqLen)
	scores := b.GlobalArray("scores", ir.F64, pairs)
	fb := b.Func("main")
	acc := fb.Local("acc", ir.F64)
	fillRand(fb, seqs, pairs*seqLen, &t)
	outer := fb.For("p", ir.CI(0), ir.CI(int64(pairs)), ir.CI(1), func(p *ir.Var) {
		fb.Set(acc, ir.CF(0))
		dp := fb.For("i", ir.CI(1), ir.CI(int64(seqLen)), ir.CI(1), func(i *ir.Var) {
			idx := ir.Add(ir.Mul(ir.V(p), ir.CI(int64(seqLen))), ir.V(i))
			// acc depends on its previous value and the sequence element:
			// the classic DP recurrence.
			fb.Set(acc, ir.Max(ir.V(acc),
				ir.Add(ir.Mul(ir.V(acc), ir.CF(0.5)), ir.At(seqs, idx))))
		})
		t.Seq = append(t.Seq, dp)
		fb.SetAt(scores, ir.V(p), ir.V(acc))
	})
	t.DOALL = append(t.DOALL, outer)
	t.Hot = outer
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildUTS models unbalanced tree search: each node spawns a
// pseudo-random number of independent children; visited nodes are counted
// by reduction.
func buildUTS(scale int) *Program {
	depth := 5
	if scale > 1 {
		depth = 6
	}
	var t Truth
	b := ir.NewBuilder("uts")
	count := b.Global("nodes", ir.F64)

	visit := b.Forward("visit", false)
	fb := b.DefineForward(visit)
	lvl := fb.Param("level", ir.F64)
	seed := fb.Param("seed", ir.F64)
	kids := fb.Local("kids", ir.F64)
	fb.Set(count, ir.Add(ir.V(count), ir.CF(1)))
	fb.If(ir.Gt(ir.V(lvl), ir.CI(0)), func() {
		fb.Set(kids, ir.Add(ir.CI(1), ir.Mod(ir.Mul(ir.V(seed), ir.CI(7)), ir.CI(3))))
		spawnLoop := fb.For("c", ir.CI(0), ir.V(kids), ir.CI(1), func(c *ir.Var) {
			fb.Call(visit, ir.Sub(ir.V(lvl), ir.CI(1)),
				ir.Add(ir.Mul(ir.V(seed), ir.CI(3)), ir.V(c)))
		})
		t.DOALL = append(t.DOALL, spawnLoop)
	})
	fb.Done()
	t.TaskFuncs = append(t.TaskFuncs, visit)

	mb := b.Func("main")
	mb.Set(count, ir.CF(0))
	mb.Call(visit, ir.CI(int64(depth)), ir.CI(1))
	mainFn := mb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}
