package workloads

import "discopop/internal/ir"

// MPMD-style applications (Section 4.4.4): PARSEC-like pipelines, a
// libVorbis-like decoder, and the FaceDetection application of Figures
// 4.10/4.11, whose per-frame task graph contains independent cascade
// detectors.

func init() {
	register("facedetection", "MPMD", buildFaceDetection)
	register("libvorbis", "MPMD", buildVorbis)
	register("ferret", "MPMD", buildFerret)
	register("dedup", "MPMD", buildDedup)
	register("blackscholes", "MPMD", buildBlackscholes)
	register("swaptions", "MPMD", buildSwaptions)
}

// buildFaceDetection models the Figure 4.10 workflow: per frame, a
// preprocessing stage feeds three independent cascade detectors over
// sliding windows (DOALL), whose results a merge stage combines. The
// detectors are the MPMD tasks; the window loops supply the scaling that
// yields the Figure 4.11 curve.
func buildFaceDetection(scale int) *Program {
	frames := sc(scale, 4)
	const (
		imgSz   = 160
		windows = 150
		taps    = 6
	)
	var t Truth
	b := ir.NewBuilder("facedetection")
	img := b.GlobalArray("img", ir.F64, imgSz)
	pre := b.GlobalArray("pre", ir.F64, imgSz)
	r1 := b.GlobalArray("res1", ir.F64, windows)
	r2 := b.GlobalArray("res2", ir.F64, windows)
	r3 := b.GlobalArray("res3", ir.F64, windows)
	faces := b.Global("faces", ir.F64)

	// Each cascade evaluates `taps` Haar-like features per sliding window
	// — the dominant work, as in the real application.
	cascade := func(name string, res *ir.Var, threshold float64) *ir.Func {
		cb := b.Func(name)
		acc := cb.Local("acc", ir.F64)
		wloop := cb.For("w", ir.CI(0), ir.CI(int64(windows)), ir.CI(1), func(w *ir.Var) {
			cb.Set(acc, ir.CF(0))
			feat := cb.For("t", ir.CI(0), ir.CI(taps), ir.CI(1), func(tap *ir.Var) {
				cb.Set(acc, ir.Add(ir.V(acc), ir.At(pre,
					ir.Mod(ir.Add(ir.Mul(ir.V(w), ir.CI(3)), ir.V(tap)), ir.CI(imgSz)))))
			})
			t.DOALL = append(t.DOALL, feat)
			cb.SetAt(res, ir.V(w), ir.Gt(ir.V(acc), ir.CF(threshold*taps)))
		})
		t.DOALL = append(t.DOALL, wloop)
		return cb.Done()
	}
	c1 := cascade("cascade1", r1, 0.40)
	c2 := cascade("cascade2", r2, 0.45)
	c3 := cascade("cascade3", r3, 0.50)

	fb := b.Func("main")
	fillRand(fb, img, imgSz, &t)
	frameLoop := fb.For("f", ir.CI(0), ir.CI(int64(frames)), ir.CI(1), func(f *ir.Var) {
		// Preprocess: integral-image style smoothing (sequential prefix,
		// a small fraction of the per-frame work).
		prep := fb.For("i", ir.CI(1), ir.CI(imgSz), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(pre, ir.V(i), ir.Add(ir.At(img, ir.V(i)),
				ir.Mul(ir.CF(0.5), ir.At(pre, ir.Sub(ir.V(i), ir.CI(1))))))
		})
		t.Seq = append(t.Seq, prep)
		// Three independent detectors: the MPMD width.
		fb.Call(c1)
		fb.Call(c2)
		fb.Call(c3)
		// Merge votes.
		merge := fb.For("w", ir.CI(0), ir.CI(int64(windows)), ir.CI(1), func(w *ir.Var) {
			fb.Set(faces, ir.Add(ir.V(faces), ir.Mul(ir.At(r1, ir.V(w)),
				ir.Mul(ir.At(r2, ir.V(w)), ir.At(r3, ir.V(w))))))
		})
		t.DOALL = append(t.DOALL, merge)
		// Next frame differs slightly: sequential frame chain.
		fb.SetAt(img, ir.Mod(ir.V(f), ir.CI(imgSz)), ir.V(faces))
	})
	t.DOACROSS = append(t.DOACROSS, frameLoop)
	t.Hot = frameLoop
	t.TaskFuncs = append(t.TaskFuncs, fb.F())
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildVorbis models the audio decoder: packet parsing is sequential,
// per-channel MDCT synthesis is independent (MPMD tasks), and overlap-add
// carries state between packets.
func buildVorbis(scale int) *Program {
	packets := sc(scale, 10)
	samples := 64
	var t Truth
	b := ir.NewBuilder("libvorbis")
	stream := b.GlobalArray("stream", ir.F64, packets*4)
	left := b.GlobalArray("left", ir.F64, samples)
	right := b.GlobalArray("right", ir.F64, samples)
	out := b.GlobalArray("pcm", ir.F64, samples)
	pos := b.Global("pos", ir.F64)

	synth := func(name string, ch *ir.Var, phase float64) *ir.Func {
		sb := b.Func(name)
		coefP := sb.Param("coef", ir.F64)
		l := sb.For("s", ir.CI(0), ir.CI(int64(samples)), ir.CI(1), func(s *ir.Var) {
			sb.SetAt(ch, ir.V(s), ir.Mul(ir.V(coefP), ir.Sin(ir.Add(ir.Mul(ir.V(s),
				ir.CF(0.098)), ir.CF(phase)))))
		})
		t.DOALL = append(t.DOALL, l)
		return sb.Done()
	}
	sl := synth("synth_left", left, 0)
	sr := synth("synth_right", right, 1.57)

	fb := b.Func("main")
	coef := fb.Local("coef", ir.F64)
	fillRand(fb, stream, packets*4, &t)
	fb.Set(pos, ir.CF(0))
	pktLoop := fb.For("p", ir.CI(0), ir.CI(int64(packets)), ir.CI(1), func(p *ir.Var) {
		// Parse: advances the stream cursor (carried).
		fb.Set(coef, ir.At(stream, ir.Mod(ir.V(pos), ir.CI(int64(packets*4)))))
		fb.Set(pos, ir.Add(ir.V(pos), ir.Add(ir.CF(1), ir.Floor(ir.Mul(ir.V(coef), ir.CI(3))))))
		// Two independent channel syntheses: MPMD tasks.
		fb.Call(sl, ir.V(coef))
		fb.Call(sr, ir.V(coef))
		// Overlap-add into the output window (carried via out).
		ola := fb.For("s", ir.CI(0), ir.CI(int64(samples)), ir.CI(1), func(s *ir.Var) {
			fb.SetAt(out, ir.V(s), ir.Add(ir.Mul(ir.At(out, ir.V(s)), ir.CF(0.5)),
				ir.Add(ir.At(left, ir.V(s)), ir.At(right, ir.V(s)))))
		})
		t.DOALL = append(t.DOALL, ola)
	})
	t.DOACROSS = append(t.DOACROSS, pktLoop)
	t.Hot = pktLoop
	t.TaskFuncs = append(t.TaskFuncs, fb.F())
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildFerret models the similarity-search pipeline: segment, extract,
// index, and rank stages per query, each writing its own buffer.
func buildFerret(scale int) *Program {
	queries := sc(scale, 12)
	feat := 32
	var t Truth
	b := ir.NewBuilder("ferret")
	imgs := b.GlobalArray("imgs", ir.F64, queries*feat)
	segBuf := b.GlobalArray("seg", ir.F64, feat)
	featBuf := b.GlobalArray("feat", ir.F64, feat)
	candBuf := b.GlobalArray("cand", ir.F64, feat)
	ranks := b.GlobalArray("ranks", ir.F64, queries)

	fb := b.Func("main")
	acc := fb.Local("acc", ir.F64)
	fillRand(fb, imgs, queries*feat, &t)
	qLoop := fb.For("q", ir.CI(0), ir.CI(int64(queries)), ir.CI(1), func(q *ir.Var) {
		seg := fb.For("i", ir.CI(0), ir.CI(int64(feat)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(segBuf, ir.V(i), ir.Mul(ir.At(imgs,
				ir.Add(ir.Mul(ir.V(q), ir.CI(int64(feat))), ir.V(i))), ir.CF(0.9)))
		})
		ext := fb.For("i", ir.CI(0), ir.CI(int64(feat)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(featBuf, ir.V(i), ir.Sqrt(ir.At(segBuf, ir.V(i))))
		})
		idx := fb.For("i", ir.CI(0), ir.CI(int64(feat)), ir.CI(1), func(i *ir.Var) {
			fb.SetAt(candBuf, ir.V(i), ir.Mul(ir.At(featBuf, ir.V(i)), ir.CF(1.1)))
		})
		t.DOALL = append(t.DOALL, seg, ext, idx)
		fb.Set(acc, ir.CF(0))
		rk := fb.For("i", ir.CI(0), ir.CI(int64(feat)), ir.CI(1), func(i *ir.Var) {
			fb.Set(acc, ir.Add(ir.V(acc), ir.At(candBuf, ir.V(i))))
		})
		t.DOALL = append(t.DOALL, rk)
		fb.SetAt(ranks, ir.V(q), ir.V(acc))
	})
	// Queries are independent: the outer loop is itself DOALL, and the
	// four stages form the pipeline the PARSEC version implements.
	t.DOALL = append(t.DOALL, qLoop)
	t.Hot = qLoop
	t.TaskFuncs = append(t.TaskFuncs, fb.F())
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildDedup models the deduplication pipeline: chunking advances a
// cursor (carried), hashing and compression are independent per chunk, and
// the ordered writer is sequential.
func buildDedup(scale int) *Program {
	chunks := sc(scale, 30)
	var t Truth
	b := ir.NewBuilder("dedup")
	data := b.GlobalArray("data", ir.F64, chunks*8)
	hash := b.GlobalArray("hash", ir.F64, chunks)
	comp := b.GlobalArray("comp", ir.F64, chunks)
	written := b.Global("written", ir.F64)
	cursor := b.Global("cursor", ir.F64)

	fb := b.Func("main")
	h := fb.Local("h", ir.F64)
	fillRand(fb, data, chunks*8, &t)
	fb.Set(cursor, ir.CF(0))
	fb.Set(written, ir.CF(0))
	pipe := fb.For("c", ir.CI(0), ir.CI(int64(chunks)), ir.CI(1), func(c *ir.Var) {
		// Chunk: cursor advance is the carried stage.
		fb.Set(h, ir.At(data, ir.Mod(ir.V(cursor), ir.CI(int64(chunks*8)))))
		fb.Set(cursor, ir.Add(ir.V(cursor), ir.Add(ir.CF(7), ir.Floor(ir.V(h)))))
		// Hash + compress: independent per chunk.
		fb.SetAt(hash, ir.V(c), ir.Mod(ir.Mul(ir.V(h), ir.CF(2654435761)), ir.CF(4294967296)))
		fb.SetAt(comp, ir.V(c), ir.Mul(ir.At(hash, ir.V(c)), ir.CF(0.5)))
		// Ordered write: carried through written.
		fb.Set(written, ir.Add(ir.V(written), ir.At(comp, ir.V(c))))
	})
	t.DOACROSS = append(t.DOACROSS, pipe)
	t.Hot = pipe
	t.TaskFuncs = append(t.TaskFuncs, fb.F())
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildBlackscholes is the classic DOALL pricing loop.
func buildBlackscholes(scale int) *Program {
	opts := sc(scale, 1200)
	var t Truth
	b := ir.NewBuilder("blackscholes")
	spot := b.GlobalArray("spot", ir.F64, opts)
	strike := b.GlobalArray("strike", ir.F64, opts)
	price := b.GlobalArray("price", ir.F64, opts)
	fb := b.Func("main")
	d1 := fb.Local("d1", ir.F64)
	fillRand(fb, spot, opts, &t)
	fillRand(fb, strike, opts, &t)
	hot := fb.For("i", ir.CI(0), ir.CI(int64(opts)), ir.CI(1), func(i *ir.Var) {
		fb.Set(d1, ir.Div(ir.Log(ir.Div(ir.Add(ir.At(spot, ir.V(i)), ir.CF(0.01)),
			ir.Add(ir.At(strike, ir.V(i)), ir.CF(0.01)))), ir.CF(0.3)))
		fb.SetAt(price, ir.V(i), ir.Mul(ir.At(spot, ir.V(i)),
			ir.Exp(ir.Neg(ir.Mul(ir.V(d1), ir.V(d1))))))
	})
	t.DOALL = append(t.DOALL, hot)
	t.Hot = hot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}

// buildSwaptions is a Monte-Carlo DOALL loop with per-swaption
// accumulation.
func buildSwaptions(scale int) *Program {
	n := sc(scale, 40)
	trials := 25
	var t Truth
	b := ir.NewBuilder("swaptions")
	prices := b.GlobalArray("prices", ir.F64, n)
	fb := b.Func("main")
	sum := fb.Local("sum", ir.F64)
	hot := fb.For("s", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(s *ir.Var) {
		fb.Set(sum, ir.CF(0))
		mc := fb.For("tr", ir.CI(0), ir.CI(int64(trials)), ir.CI(1), func(tr *ir.Var) {
			fb.Set(sum, ir.Add(ir.V(sum), ir.Exp(ir.Neg(ir.Rnd()))))
		})
		t.DOALL = append(t.DOALL, mc)
		fb.SetAt(prices, ir.V(s), ir.Div(ir.V(sum), ir.CI(int64(trials))))
	})
	t.DOALL = append(t.DOALL, hot)
	t.Hot = hot
	mainFn := fb.Done()
	return &Program{M: b.Build(mainFn), Truth: t}
}
