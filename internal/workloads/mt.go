package workloads

import "discopop/internal/ir"

// Multi-threaded (pthread-like) target programs for Section 2.3.4 and the
// Figure 2.10/2.11 experiments: four worker threads split a data-parallel
// kernel, sharing input arrays and protecting a shared accumulator with an
// explicit lock — the synchronization discipline the profiler requires.

func init() {
	register("md5-mt", "Starbench-MT", mtKernel("md5-mt", 2000, 3))
	register("kmeans-mt", "Starbench-MT", mtKernel("kmeans-mt", 1600, 2))
	register("c-ray-mt", "Starbench-MT", mtKernel("c-ray-mt", 1200, 4))
	register("rgbyuv-mt", "Starbench-MT", mtKernel("rgbyuv-mt", 2400, 1))
	register("rotate-mt", "Starbench-MT", mtKernel("rotate-mt", 2000, 1))
	register("rot-cc-mt", "Starbench-MT", mtKernel("rot-cc-mt", 1600, 2))
	register("streamcluster-mt", "Starbench-MT", mtKernel("streamcluster-mt", 1200, 2))
	register("bodytrack-mt", "Starbench-MT", mtKernel("bodytrack-mt", 1000, 3))
}

// mtKernel builds a four-thread data-parallel program: each worker
// processes elems/4 elements with `rounds` compute rounds per element,
// accumulating a partial sum, then merges it into a shared total inside a
// lock region.
func mtKernel(name string, elems, rounds int) BuilderFunc {
	const threads = 4
	return func(scale int) *Program {
		n := sc(scale, elems)
		per := n / threads
		var t Truth
		b := ir.NewBuilder(name)
		in := b.GlobalArray("in", ir.F64, n)
		out := b.GlobalArray("out", ir.F64, n)
		total := b.Global("total", ir.F64)

		worker := b.Func("worker")
		lo := worker.Param("lo", ir.F64)
		hi := worker.Param("hi", ir.F64)
		local := worker.Local("local", ir.F64)
		v := worker.Local("v", ir.F64)
		worker.Set(local, ir.CF(0))
		loop := worker.For("i", ir.V(lo), ir.V(hi), ir.CI(1), func(i *ir.Var) {
			worker.Set(v, ir.At(in, ir.V(i)))
			for r := 0; r < rounds; r++ {
				worker.Set(v, ir.Add(ir.Mul(ir.V(v), ir.CF(0.99)), ir.CF(0.013)))
			}
			worker.SetAt(out, ir.V(i), ir.V(v))
			worker.Set(local, ir.Add(ir.V(local), ir.V(v)))
		})
		t.DOALL = append(t.DOALL, loop)
		// Merge under the shared lock: the cross-thread dependence the
		// profiler must order correctly (Figure 2.4c).
		worker.Locked(1, func() {
			worker.Set(total, ir.Add(ir.V(total), ir.V(local)))
		})
		workerFn := worker.Done()

		fb := b.Func("main")
		fillRand(fb, in, n, &t)
		fb.Set(total, ir.CF(0))
		for w := 0; w < threads; w++ {
			fb.Spawn(workerFn, ir.CI(int64(w*per)), ir.CI(int64((w+1)*per)))
		}
		fb.Sync()
		t.Hot = loop
		mainFn := fb.Done()
		return &Program{M: b.Build(mainFn), Truth: t}
	}
}
