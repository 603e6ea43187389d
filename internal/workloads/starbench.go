package workloads

import "discopop/internal/ir"

// Starbench-like programs: image processing, information security, machine
// learning, and media decoding, mirroring the suite used throughout
// Chapters 2 and 4.

func init() {
	register("c-ray", "Starbench", buildCRay)
	register("kmeans", "Starbench", buildKMeans)
	register("md5", "Starbench", buildMD5)
	register("ray-rot", "Starbench", buildRayRot)
	register("rgbyuv", "Starbench", buildRGBYUV)
	register("rotate", "Starbench", buildRotate)
	register("rot-cc", "Starbench", buildRotCC)
	register("streamcluster", "Starbench", buildStreamcluster)
	register("tinyjpeg", "Starbench", buildTinyJPEG)
	register("bodytrack", "Starbench", buildBodytrack)
	register("h264dec", "Starbench", buildH264)
}

// buildCRay models the ray tracer: every pixel is traced independently by
// a shading function — the canonical DOALL-over-pixels loop.
func buildCRay(scale int) *Program {
	w, h := 40, sc(scale, 40)
	var t Truth
	b := ir.NewBuilder("c-ray")

	shade := b.FuncRet("shade")
	px := shade.Param("px", ir.F64)
	py := shade.Param("py", ir.F64)
	d := shade.Local("d", ir.F64)
	hit := shade.Local("hit", ir.F64)
	shade.Set(hit, ir.CF(0))
	// Sphere intersection tests: a small inner loop over objects.
	shade.For("o", ir.CI(0), ir.CI(8), ir.CI(1), func(o *ir.Var) {
		shade.Set(d, ir.Add(ir.Mul(ir.V(px), ir.V(px)),
			ir.Add(ir.Mul(ir.V(py), ir.V(py)), ir.Mul(ir.V(o), ir.CF(0.1)))))
		shade.If(ir.Lt(ir.V(d), ir.CF(0.5)), func() {
			shade.Set(hit, ir.Add(ir.V(hit), ir.Div(ir.CF(1), ir.Add(ir.V(d), ir.CF(0.1)))))
		})
	})
	shade.Return(ir.V(hit))
	shadeFn := shade.Done()

	pixels := b.GlobalArray("pixels", ir.F64, w*h)
	fb := b.Func("main")
	fx := fb.Local("fx", ir.F64)
	fy := fb.Local("fy", ir.F64)
	rows := fb.For("y", ir.CI(0), ir.CI(int64(h)), ir.CI(1), func(y *ir.Var) {
		cols := fb.For("x", ir.CI(0), ir.CI(int64(w)), ir.CI(1), func(x *ir.Var) {
			fb.Set(fx, ir.Div(ir.V(x), ir.CI(int64(w))))
			fb.Set(fy, ir.Div(ir.V(y), ir.CI(int64(h))))
			fb.CallInto(ir.At(pixels, ir.Add(ir.Mul(ir.V(y), ir.CI(int64(w))), ir.V(x))),
				shadeFn, ir.V(fx), ir.V(fy))
		})
		t.DOALL = append(t.DOALL, cols)
	})
	t.DOALL = append(t.DOALL, rows)
	t.Hot = rows
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildKMeans models the clustering kernel: a sequential convergence loop
// around a DOALL assignment step and an indirect-reduction update step.
func buildKMeans(scale int) *Program {
	n := sc(scale, 600)
	k := 8
	iters := 5
	var t Truth
	b := ir.NewBuilder("kmeans")
	pts := b.GlobalArray("points", ir.F64, n)
	asg := b.GlobalArray("assign", ir.I64, n)
	cent := b.GlobalArray("centroid", ir.F64, k)
	csum := b.GlobalArray("csum", ir.F64, k)
	ccnt := b.GlobalArray("ccnt", ir.F64, k)

	fb := b.Func("main")
	best := fb.Local("best", ir.F64)
	bi := fb.Local("besti", ir.I64)
	dist := fb.Local("dist", ir.F64)
	a := fb.Local("a", ir.I64)
	fillRand(fb, pts, n, &t)
	fillLinear(fb, cent, k, 0.125, 0.05, &t)
	conv := fb.For("it", ir.CI(0), ir.CI(int64(iters)), ir.CI(1), func(it *ir.Var) {
		// Assignment: DOALL over points, inner argmin over centroids.
		assign := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
			fb.Set(best, ir.CF(1e18))
			fb.Set(bi, ir.CI(0))
			fb.For("c", ir.CI(0), ir.CI(int64(k)), ir.CI(1), func(c *ir.Var) {
				fb.Set(dist, ir.Abs(ir.Sub(ir.At(pts, ir.V(i)), ir.At(cent, ir.V(c)))))
				fb.If(ir.Lt(ir.V(dist), ir.V(best)), func() {
					fb.Set(best, ir.V(dist))
					fb.Set(bi, ir.V(c))
				})
			})
			fb.SetAt(asg, ir.V(i), ir.V(bi))
		})
		t.DOALL = append(t.DOALL, assign)
		if t.Hot == nil {
			t.Hot = assign
		}
		// Update: histogram-style indirect reductions into csum/ccnt.
		fb.For("cz", ir.CI(0), ir.CI(int64(k)), ir.CI(1), func(c *ir.Var) {
			fb.SetAt(csum, ir.V(c), ir.CF(0))
			fb.SetAt(ccnt, ir.V(c), ir.CF(0))
		})
		upd := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
			fb.Set(a, ir.At(asg, ir.V(i)))
			fb.SetAt(csum, ir.V(a), ir.Add(ir.At(csum, ir.V(a)), ir.At(pts, ir.V(i))))
			fb.SetAt(ccnt, ir.V(a), ir.Add(ir.At(ccnt, ir.V(a)), ir.CF(1)))
		})
		t.DOALL = append(t.DOALL, upd)
		newc := fb.For("c", ir.CI(0), ir.CI(int64(k)), ir.CI(1), func(c *ir.Var) {
			fb.SetAt(cent, ir.V(c), ir.Div(ir.At(csum, ir.V(c)),
				ir.Add(ir.At(ccnt, ir.V(c)), ir.CF(1e-9))))
		})
		t.DOALL = append(t.DOALL, newc)
	})
	t.Seq = append(t.Seq, conv)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildMD5 models hashing many independent buffers: the outer loop is
// DOALL (one digest per buffer), while the inner mixing loop is a
// sequential chain through the state variables.
func buildMD5(scale int) *Program {
	bufs := sc(scale, 24)
	blockLen := 64
	var t Truth
	b := ir.NewBuilder("md5")
	data := b.GlobalArray("data", ir.F64, bufs*blockLen)
	digest := b.GlobalArray("digest", ir.F64, bufs)

	fb := b.Func("main")
	a := fb.Local("a", ir.F64)
	bb := fb.Local("b", ir.F64)
	c := fb.Local("c", ir.F64)
	d := fb.Local("d", ir.F64)
	tmp := fb.Local("tmp", ir.F64)
	fillRand(fb, data, bufs*blockLen, &t)
	outer := fb.For("buf", ir.CI(0), ir.CI(int64(bufs)), ir.CI(1), func(buf *ir.Var) {
		fb.Set(a, ir.CF(0x67452301))
		fb.Set(bb, ir.CF(0xefcdab89))
		fb.Set(c, ir.CF(0x98badcfe))
		fb.Set(d, ir.CF(0x10325476))
		inner := fb.For("r", ir.CI(0), ir.CI(int64(blockLen)), ir.CI(1), func(r *ir.Var) {
			idx := ir.Add(ir.Mul(ir.V(buf), ir.CI(int64(blockLen))), ir.V(r))
			// The mixing chain: every round depends on the previous one.
			fb.Set(tmp, ir.V(d))
			fb.Set(d, ir.V(c))
			fb.Set(c, ir.V(bb))
			fb.Set(bb, ir.Add(ir.V(bb),
				ir.Xor(ir.AndB(ir.V(bb), ir.V(c)), ir.Add(ir.V(a), ir.At(data, idx)))))
			fb.Set(a, ir.V(tmp))
		})
		t.Seq = append(t.Seq, inner)
		if t.Hot == nil {
			t.Hot = inner
		}
		fb.SetAt(digest, ir.V(buf), ir.Add(ir.Add(ir.V(a), ir.V(bb)), ir.Add(ir.V(c), ir.V(d))))
	})
	t.DOALL = append(t.DOALL, outer)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// imageKernel builds an image-processing main with a per-pixel DOALL loop
// computed by fn.
func imageKernel(name string, n int,
	emit func(fb *ir.FuncBuilder, src, dst *ir.Var, i *ir.Var)) BuilderFunc {
	return func(scale int) *Program {
		px := sc(scale, n)
		var t Truth
		b := ir.NewBuilder(name)
		src := b.GlobalArray("src", ir.F64, px)
		dst := b.GlobalArray("dst", ir.F64, px)
		fb := b.Func("main")
		fillRand(fb, src, px, &t)
		hot := fb.For("i", ir.CI(0), ir.CI(int64(px)), ir.CI(1), func(i *ir.Var) {
			emit(fb, src, dst, i)
		})
		t.DOALL = append(t.DOALL, hot)
		t.Hot = hot
		mainFn := fb.Done()
		return &Program{M: b.Build(mainFn), Truth: t}
	}
}

// buildRGBYUV models the color-space conversion of Figure 4.7: three
// reads, three independent channel computations, three writes per pixel.
func buildRGBYUV(scale int) *Program {
	px := sc(scale, 2400)
	var t Truth
	b := ir.NewBuilder("rgbyuv")
	rch := b.GlobalArray("r", ir.F64, px)
	gch := b.GlobalArray("g", ir.F64, px)
	bch := b.GlobalArray("b", ir.F64, px)
	ych := b.GlobalArray("y", ir.F64, px)
	uch := b.GlobalArray("u", ir.F64, px)
	vch := b.GlobalArray("v", ir.F64, px)
	fb := b.Func("main")
	fillRand(fb, rch, px, &t)
	fillRand(fb, gch, px, &t)
	fillRand(fb, bch, px, &t)
	hot := fb.For("i", ir.CI(0), ir.CI(int64(px)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(ych, ir.V(i), ir.Add(ir.Mul(ir.CF(0.299), ir.At(rch, ir.V(i))),
			ir.Add(ir.Mul(ir.CF(0.587), ir.At(gch, ir.V(i))),
				ir.Mul(ir.CF(0.114), ir.At(bch, ir.V(i))))))
		fb.SetAt(uch, ir.V(i), ir.Sub(ir.At(bch, ir.V(i)), ir.At(ych, ir.V(i))))
		fb.SetAt(vch, ir.V(i), ir.Sub(ir.At(rch, ir.V(i)), ir.At(ych, ir.V(i))))
	})
	t.DOALL = append(t.DOALL, hot)
	t.Hot = hot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildRotate models image rotation: dst[perm(i)] = src[i], a permutation
// scatter with independent iterations.
var buildRotate = imageKernel("rotate", 3000,
	func(fb *ir.FuncBuilder, src, dst *ir.Var, i *ir.Var) {
		n := int64(dst.Elems)
		fb.SetAt(dst, ir.Mod(ir.Mul(ir.V(i), ir.CI(7)), ir.CI(n)), ir.At(src, ir.V(i)))
	})

// buildRayRot combines ray shading with rotation per pixel.
var buildRayRot = imageKernel("ray-rot", 2000,
	func(fb *ir.FuncBuilder, src, dst *ir.Var, i *ir.Var) {
		n := int64(dst.Elems)
		fb.SetAt(dst, ir.Mod(ir.Mul(ir.V(i), ir.CI(13)), ir.CI(n)),
			ir.Div(ir.CF(1), ir.Add(ir.At(src, ir.V(i)), ir.CF(0.2))))
	})

// buildRotCC is rotate followed by color conversion: two DOALL stages over
// the image with a stage boundary — the three-step structure visible in
// the rot-cc CU graph of Figure 3.6.
func buildRotCC(scale int) *Program {
	px := sc(scale, 2000)
	var t Truth
	b := ir.NewBuilder("rot-cc")
	src := b.GlobalArray("src", ir.F64, px)
	mid := b.GlobalArray("mid", ir.F64, px)
	dst := b.GlobalArray("dst", ir.F64, px)
	fb := b.Func("main")
	fillRand(fb, src, px, &t)
	rot := fb.For("i", ir.CI(0), ir.CI(int64(px)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(mid, ir.Mod(ir.Mul(ir.V(i), ir.CI(11)), ir.CI(int64(px))), ir.At(src, ir.V(i)))
	})
	cc := fb.For("i", ir.CI(0), ir.CI(int64(px)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(dst, ir.V(i), ir.Add(ir.Mul(ir.CF(0.299), ir.At(mid, ir.V(i))), ir.CF(0.5)))
	})
	t.DOALL = append(t.DOALL, rot, cc)
	t.Hot = rot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildStreamcluster models online clustering: a DOALL cost evaluation
// with a global sum reduction, inside a sequential center-opening loop.
func buildStreamcluster(scale int) *Program {
	n := sc(scale, 800)
	rounds := 4
	var t Truth
	b := ir.NewBuilder("streamcluster")
	pts := b.GlobalArray("points", ir.F64, n)
	ctr := b.GlobalArray("centers", ir.F64, rounds+1)
	cost := b.Global("totalcost", ir.F64)
	fb := b.Func("main")
	d := fb.Local("d", ir.F64)
	fillRand(fb, pts, n, &t)
	fb.SetAt(ctr, ir.CI(0), ir.CF(0.5))
	outer := fb.For("round", ir.CI(0), ir.CI(int64(rounds)), ir.CI(1), func(rd *ir.Var) {
		fb.Set(cost, ir.CF(0))
		eval := fb.For("i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
			fb.Set(d, ir.Abs(ir.Sub(ir.At(pts, ir.V(i)), ir.At(ctr, ir.V(rd)))))
			fb.Set(cost, ir.Add(ir.V(cost), ir.V(d)))
		})
		t.DOALL = append(t.DOALL, eval) // cost reduction
		if t.Hot == nil {
			t.Hot = eval
		}
		// Open the next center based on the accumulated cost: carried.
		fb.SetAt(ctr, ir.Add(ir.V(rd), ir.CI(1)),
			ir.Div(ir.V(cost), ir.CI(int64(n))))
	})
	t.Seq = append(t.Seq, outer)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildTinyJPEG models block decoding: the bitstream position advances
// sequentially (carried), but the IDCT and color conversion of each block
// are independent — the canonical DOACROSS/pipeline loop.
func buildTinyJPEG(scale int) *Program {
	blocks := sc(scale, 60)
	blockPx := 16
	var t Truth
	b := ir.NewBuilder("tinyjpeg")
	stream := b.GlobalArray("stream", ir.F64, blocks*4)
	out := b.GlobalArray("out", ir.F64, blocks*blockPx)
	pos := b.Global("bitpos", ir.F64)
	fb := b.Func("main")
	coef := fb.Local("coef", ir.F64)
	fillRand(fb, stream, blocks*4, &t)
	fb.Set(pos, ir.CF(0))
	hot := fb.For("blk", ir.CI(0), ir.CI(int64(blocks)), ir.CI(1), func(blk *ir.Var) {
		// Huffman decode: reads and advances the shared bitstream position
		// — the loop-carried part.
		fb.Set(coef, ir.At(stream, ir.Mod(ir.V(pos), ir.CI(int64(blocks*4)))))
		fb.Set(pos, ir.Add(ir.V(pos), ir.Add(ir.CF(1), ir.Floor(ir.Mul(ir.V(coef), ir.CF(3))))))
		// IDCT + color conversion: independent per block.
		idct := fb.For("p", ir.CI(0), ir.CI(int64(blockPx)), ir.CI(1), func(p *ir.Var) {
			fb.SetAt(out, ir.Add(ir.Mul(ir.V(blk), ir.CI(int64(blockPx))), ir.V(p)),
				ir.Mul(ir.V(coef), ir.Cos(ir.Mul(ir.V(p), ir.CF(0.196)))))
		})
		t.DOALL = append(t.DOALL, idct)
	})
	t.DOACROSS = append(t.DOACROSS, hot)
	t.Hot = hot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildBodytrack models a particle filter: per-particle weight evaluation
// is DOALL; normalization is a reduction; time steps are sequential.
func buildBodytrack(scale int) *Program {
	particles := sc(scale, 500)
	steps := 4
	var t Truth
	b := ir.NewBuilder("bodytrack")
	pose := b.GlobalArray("pose", ir.F64, particles)
	wgt := b.GlobalArray("weight", ir.F64, particles)
	norm := b.Global("norm", ir.F64)
	est := b.Global("estimate", ir.F64)
	fb := b.Func("main")
	fillRand(fb, pose, particles, &t)
	fb.Set(est, ir.CF(0.5))
	outer := fb.For("step", ir.CI(0), ir.CI(int64(steps)), ir.CI(1), func(s *ir.Var) {
		evalLoop := fb.For("i", ir.CI(0), ir.CI(int64(particles)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(wgt, ir.V(i), ir.Exp(ir.Neg(ir.Abs(
				ir.Sub(ir.At(pose, ir.V(i)), ir.V(est))))))
		})
		t.DOALL = append(t.DOALL, evalLoop)
		if t.Hot == nil {
			t.Hot = evalLoop
		}
		fb.Set(norm, ir.CF(0))
		normLoop := fb.For("i", ir.CI(0), ir.CI(int64(particles)), ir.CI(1), func(i *ir.Var) {
			fb.Set(norm, ir.Add(ir.V(norm), ir.At(wgt, ir.V(i))))
		})
		t.DOALL = append(t.DOALL, normLoop)
		// Estimate update: carried across time steps.
		fb.Set(est, ir.Div(ir.V(norm), ir.CI(int64(particles))))
		resample := fb.For("i", ir.CI(0), ir.CI(int64(particles)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(pose, ir.V(i), ir.Add(ir.Mul(ir.At(pose, ir.V(i)), ir.CF(0.9)),
				ir.Mul(ir.V(est), ir.CF(0.1))))
		})
		t.DOALL = append(t.DOALL, resample)
	})
	t.Seq = append(t.Seq, outer)
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildH264 models the decoder: frames depend on reference frames
// (sequential), entropy decoding within a frame is carried, macroblock
// reconstruction is independent — a DOACROSS frame loop.
func buildH264(scale int) *Program {
	frames := sc(scale, 8)
	mbs := 40
	var t Truth
	b := ir.NewBuilder("h264dec")
	bits := b.GlobalArray("bits", ir.F64, frames*mbs)
	ref := b.GlobalArray("ref", ir.F64, mbs)
	cur := b.GlobalArray("cur", ir.F64, mbs)
	bitpos := b.Global("bitpos", ir.F64)
	fb := b.Func("main")
	sym := fb.Local("sym", ir.F64)
	fillRand(fb, bits, frames*mbs, &t)
	fillRand(fb, ref, mbs, &t)
	fb.Set(bitpos, ir.CF(0))
	frameLoop := fb.For("f", ir.CI(0), ir.CI(int64(frames)), ir.CI(1), func(f *ir.Var) {
		// Entropy decode: sequential through bitpos.
		entropy := fb.For("m", ir.CI(0), ir.CI(int64(mbs)), ir.CI(1), func(m *ir.Var) {
			fb.Set(sym, ir.At(bits, ir.Mod(ir.V(bitpos), ir.CI(int64(frames*mbs)))))
			fb.Set(bitpos, ir.Add(ir.V(bitpos), ir.Add(ir.CF(1), ir.V(sym))))
			fb.SetAt(cur, ir.V(m), ir.V(sym))
		})
		t.DOACROSS = append(t.DOACROSS, entropy)
		// Reconstruction: DOALL over macroblocks against the reference.
		recon := fb.For("m", ir.CI(0), ir.CI(int64(mbs)), ir.CI(1), func(m *ir.Var) {
			fb.SetAt(cur, ir.V(m), ir.Add(ir.Mul(ir.At(cur, ir.V(m)), ir.CF(0.7)),
				ir.Mul(ir.At(ref, ir.V(m)), ir.CF(0.3))))
		})
		t.DOALL = append(t.DOALL, recon)
		// Reference update: carried across frames.
		refupd := fb.For("m", ir.CI(0), ir.CI(int64(mbs)), ir.CI(1), func(m *ir.Var) {
			fb.SetAt(ref, ir.V(m), ir.At(cur, ir.V(m)))
		})
		t.DOALL = append(t.DOALL, refupd)
	})
	// Frames depend on their predecessors, but reconstruction work can
	// overlap with the next frame's entropy decoding: DOACROSS.
	t.DOACROSS = append(t.DOACROSS, frameLoop)
	t.Hot = frameLoop
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}
