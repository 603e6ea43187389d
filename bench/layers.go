package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"discopop"
	"discopop/internal/bytecode"
	"discopop/internal/cu"
	"discopop/internal/discovery"
	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/pet"
	"discopop/internal/profiler"
	"discopop/internal/rank"
	"discopop/internal/remote"
	"discopop/internal/sig"
)

// analysisJob is one in-process analysis: a module, the profiler
// configuration to run it under, and what is known about the right answer.
type analysisJob struct {
	Name string // "CG@32/sig": program, scale and variant
	// Class groups jobs doing like work for the similarity report: the name
	// for a registry program, the variant alone for pool modules.
	Class string
	Key   string // "CG@32": the program identity (expected.json, cache key)
	Mod   *ir.Module
	Opt   profiler.Options
	// Rebuild constructs a fresh instance of the module, for measurements
	// that must not see state cached on Mod (content hash, op numbering).
	Rebuild func() *ir.Module
	Loops   []genLoop
	Expect  *expectedCounts // nil when no committed counts exist
}

// par reports whether the job profiles through a worker pipeline.
func (j *analysisJob) par() bool { return j.Opt.Workers > 0 || j.Opt.MT }

// analysisOut is what a finished analysis is checked on.
type analysisOut struct {
	Instrs   int64
	Accesses int64
	Deps     int
	Kinds    map[string]string // loop header location -> suggestion kind
}

// loopKinds indexes ranked suggestions by location. A location can carry
// a loop suggestion and a task suggestion; the loop classification wins.
func loopKinds(ranked []*discovery.Suggestion) map[string]string {
	kinds := map[string]string{}
	for _, s := range ranked {
		loc := s.Loc.String()
		if _, seen := kinds[loc]; !seen || s.Region != nil {
			kinds[loc] = s.Kind.String()
		}
	}
	return kinds
}

func outOf(rep *discopop.Report) analysisOut {
	return analysisOut{Instrs: rep.Instrs, Accesses: rep.Profile.Accesses,
		Deps: len(rep.Profile.Deps), Kinds: loopKinds(rep.Ranked)}
}

// timedTracer wraps one batch consumer and sums the time spent in its
// ProcessBatch calls: one timer pair per flushed chunk, never per event.
type timedTracer struct {
	interp.BatchTracer
	busy   time.Duration
	chunks int
	events int64
}

func (t *timedTracer) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	start := time.Now()
	t.BatchTracer.ProcessBatch(m, evs)
	t.busy += time.Since(start)
	t.chunks++
	t.events += int64(len(evs))
}

// nullTracer consumes batches without looking at them; countTracer only
// counts what the profiler would count as accesses. The difference
// between a run under nullTracer and an untraced run is event delivery.
type nullTracer struct {
	interp.BaseTracer
	events int64
}

func (t *nullTracer) ProcessBatch(_ *ir.Module, evs []interp.Ev) { t.events += int64(len(evs)) }

type countTracer struct {
	interp.BaseTracer
	accesses int64
}

func (t *countTracer) ProcessBatch(_ *ir.Module, evs []interp.Ev) {
	for i := range evs {
		switch evs[i].Kind() {
		case interp.EvLoad, interp.EvStore:
			t.accesses++
		case interp.EvFreeVar:
			t.accesses += int64(evs[i].B)
		}
	}
}

// countModule runs m once under countTracer and returns the executed
// statements and the accesses a profile of it reports.
func countModule(m *ir.Module) (instrs, accesses int64) {
	ct := &countTracer{}
	in := interp.New(m, ct, interp.WithPool(mem.Default))
	defer in.Release()
	instrs = in.Run()
	return instrs, ct.accesses
}

// layerSample is the layer-by-layer timing of one decomposed analysis.
type layerSample struct {
	New, InterpNew, Run, Consume, PetConsume time.Duration
	Result, Tree, CU, Discover, Rank         time.Duration
	Events, Accesses, Instrs, StoreBytes     int64
	Deps, CUs, Suggestions                   int
}

// analyzeLayers runs the stages of pipeline.New() one exported call at a
// time, with a span around each call, and returns what discopop.Analyze
// would have reported together with the per-layer times. Chunk counts ride
// on the consume spans as attributes; there is never a span per chunk.
func analyzeLayers(log *spanLog, parent int, j *analysisJob) (analysisOut, layerSample) {
	var ls layerSample
	m := j.Mod
	span := func(name string, start time.Time, d time.Duration, par int, attrs map[string]string) int {
		return log.add(name, start, d, par, "", attrs)
	}

	start := time.Now()
	prof := profiler.New(m, j.Opt)
	ls.New = time.Since(start)
	span("profiler.new", start, ls.New, parent, nil)

	pb := pet.NewBuilder()
	tp, tb := &timedTracer{BatchTracer: prof}, &timedTracer{BatchTracer: pb}
	start = time.Now()
	in := interp.New(m, &interp.MultiTracer{Tracers: []interp.Tracer{tp, tb}}, interp.WithPool(mem.Default))
	ls.InterpNew = time.Since(start)
	newSpan := span("interp.new", start, ls.InterpNew, parent, nil)
	if in.CompileTime > 0 {
		span("bytecode.compile", start, in.CompileTime, newSpan, nil)
	}

	start = time.Now()
	instrs := in.Run()
	ls.Run = time.Since(start)
	in.Release()
	ls.Consume, ls.PetConsume, ls.Events = tp.busy, tb.busy, tp.events
	runSpan := span("interp.run", start, ls.Run, parent, map[string]string{"instrs": strconv.FormatInt(instrs, 10)})
	// The consumers' chunks interleave with execution; their summed time is
	// drawn as two aggregate children at the head of the run span.
	span("profiler.consume", start, tp.busy, runSpan, map[string]string{"chunks": strconv.Itoa(tp.chunks), "aggregate": "true"})
	span("pet.consume", start.Add(tp.busy), tb.busy, runSpan, map[string]string{"chunks": strconv.Itoa(tb.chunks), "aggregate": "true"})

	start = time.Now()
	res := prof.Result()
	ls.Result = time.Since(start)
	span("profiler.result", start, ls.Result, parent, map[string]string{"deps": strconv.Itoa(len(res.Deps))})

	start = time.Now()
	sinks := make(map[ir.Loc]int64, len(res.Deps))
	for d, n := range res.Deps {
		sinks[d.Sink] += n
	}
	tree := pb.Tree(instrs)
	tree.AttachDeps(sinks)
	ls.Tree = time.Since(start)
	span("pet.tree", start, ls.Tree, parent, nil)

	start = time.Now()
	scope := ir.AnalyzeScopes(m)
	graph := cu.Build(m, scope, res)
	ls.CU = time.Since(start)
	span("cu.build", start, ls.CU, parent, map[string]string{"cus": strconv.Itoa(len(graph.CUs))})

	start = time.Now()
	an := discovery.Analyze(m, scope, res, graph)
	an.Suggestions = append(an.Suggestions, an.RecursiveTaskFuncs()...)
	ls.Discover = time.Since(start)
	span("discovery.analyze", start, ls.Discover, parent, nil)

	start = time.Now()
	ranked := rank.Rank(an, rank.Options{})
	ls.Rank = time.Since(start)
	span("rank.rank", start, ls.Rank, parent, nil)

	ls.Instrs, ls.Accesses, ls.StoreBytes = instrs, res.Accesses, res.StoreBytes
	ls.Deps, ls.CUs, ls.Suggestions = len(res.Deps), len(graph.CUs), len(ranked)
	return analysisOut{Instrs: instrs, Accesses: res.Accesses, Deps: len(res.Deps), Kinds: loopKinds(ranked)}, ls
}

// layerAgg accumulates decomposed analyses into the per-layer metrics that
// come from them.
type layerAgg struct {
	newUS, mergeMS, treeUS, cuUS, discUS, rankUS []float64
	consume, petConsume                          time.Duration
	accesses, events                             int64
	storeBytes                                   int64
	deps, cus, suggestions                       int
	alloc                                        uint64
}

func (a *layerAgg) add(ls layerSample) {
	a.newUS = append(a.newUS, us(ls.New))
	a.mergeMS = append(a.mergeMS, ms(ls.Result))
	a.treeUS = append(a.treeUS, us(ls.Tree))
	a.cuUS = append(a.cuUS, us(ls.CU))
	a.discUS = append(a.discUS, us(ls.Discover))
	a.rankUS = append(a.rankUS, us(ls.Rank))
	a.consume += ls.Consume
	a.petConsume += ls.PetConsume
	a.accesses += ls.Accesses
	a.events += ls.Events
	a.storeBytes += ls.StoreBytes
	a.deps += ls.Deps
	a.cus += ls.CUs
	a.suggestions += ls.Suggestions
}

// metrics reports the means per analysis (times) and the totals per pass
// over the job set (counts), which repeat exactly for a given seed.
func (a *layerAgg) metrics(out map[string]float64, passes int) {
	p := float64(max(passes, 1))
	out["profiler.new_us"] = mean(a.newUS)
	out["profiler.consume_ns_per_access"] = ratio(float64(a.consume), float64(a.accesses))
	out["profiler.merge_ms"] = mean(a.mergeMS)
	out["profiler.store_mb"] = float64(a.storeBytes) / p / (1 << 20)
	out["profiler.deps"] = float64(a.deps) / p
	out["pet.consume_ns_per_event"] = ratio(float64(a.petConsume), float64(a.events))
	out["pet.tree_us"] = mean(a.treeUS)
	out["cu.build_us"] = mean(a.cuUS)
	out["cu.count"] = float64(a.cus) / p
	out["discovery.analyze_us"] = mean(a.discUS)
	out["discovery.suggestions"] = float64(a.suggestions) / p
	out["rank.rank_us"] = mean(a.rankUS)
	out["bench.alloc_bytes_per_access"] = ratio(float64(a.alloc), float64(a.accesses))
}

// totalAlloc reads the bytes allocated by this process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// probeLayers measures, on each sequential program of the job set and
// within the time budget, the layers a whole-pipeline run cannot time
// separately: IR construction, bytecode compile and hash, the untraced VM
// and event delivery, the stores in isolation, the profiler variants, the
// wire codec and the sharded dependence merge. mt is the multi-threaded
// target profiled under the MT pipeline.
func probeLayers(log *spanLog, jobs []*analysisJob, mt *analysisJob, seed int64, budget time.Duration, out map[string]float64) error {
	deadline := time.Now().Add(budget)
	setProcs(false)
	root := time.Now()
	rootSpan := log.add("bench.probe", root, 0, -1, "", nil)
	var (
		buildMS, compileMS, hashUS, encUS, decUS, bytes, shardUS []float64
		untraced, null, traced, sigT, skipT, parT                time.Duration
		instrs, events, accesses                                 int64
		skipped, skippable, falseDeps, sigDeps                   int64
		workingSet                                               int
	)
	probed := map[string]bool{}
	timed := func(name string, f func()) time.Duration {
		start := time.Now()
		f()
		d := time.Since(start)
		log.add(name, start, d, rootSpan, "", nil)
		return d
	}
	for _, j := range jobs {
		if j.Opt.MT || probed[j.Key] {
			continue
		}
		if len(probed) > 0 && time.Now().After(deadline) {
			break
		}
		probed[j.Key] = true
		var fresh *ir.Module
		buildMS = append(buildMS, ms(timed("workloads.build", func() { fresh = j.Rebuild() })))
		hashUS = append(hashUS, us(timed("bytecode.hash", func() { bytecode.ModuleHash(fresh) })))
		compileMS = append(compileMS, ms(timed("bytecode.compile", func() { bytecode.Compile(fresh) })))

		var enc []byte
		var encErr error
		encT := timed("remote.encode", func() { enc, encErr = remote.Encode(fresh) })
		if encErr != nil {
			return fmt.Errorf("encode %s: %w", j.Key, encErr)
		}
		encUS = append(encUS, us(encT))
		var decErr error
		decUS = append(decUS, us(timed("remote.decode", func() { _, decErr = remote.Decode(enc) })))
		if decErr != nil {
			return fmt.Errorf("decode %s: %w", j.Key, decErr)
		}
		bytes = append(bytes, float64(len(enc)))

		untraced += timed("interp.untraced", func() {
			in := interp.New(j.Mod, nil, interp.WithPool(mem.Default))
			instrs += in.Run()
			in.Release()
		})
		nt := &nullTracer{}
		null += timed("interp.delivery", func() {
			in := interp.New(j.Mod, nt, interp.WithPool(mem.Default))
			in.Run()
			in.Release()
		})
		events += nt.events

		var perfect, sigRes, skipRes *profiler.Result
		traced += timed("profiler.perfect", func() { perfect = profiler.Profile(j.Mod, profiler.Options{}) })
		accesses += perfect.Accesses
		sigT += timed("profiler.signature", func() {
			sigRes = profiler.Profile(j.Mod, profiler.Options{Store: profiler.StoreSignature})
		})
		skipT += timed("profiler.signature+skip", func() {
			skipRes = profiler.Profile(j.Mod, profiler.Options{Store: profiler.StoreSignature, Skip: true})
		})
		skipped += skipRes.Skip.SkippedReads + skipRes.Skip.SkippedWrite
		skippable += skipRes.Skip.Reads + skipRes.Skip.Writes
		fp, _ := profiler.DiffDeps(sigRes.Deps, perfect.Deps)
		falseDeps += int64(len(fp))
		sigDeps += int64(len(sigRes.Deps))
		setProcs(true)
		parT += timed("profiler.workers2", func() { profiler.Profile(j.Mod, profiler.Options{Workers: 2}) })
		setProcs(false)

		shards := profiler.NewDepShards(0)
		shardUS = append(shardUS, us(timed("profiler.depshards", func() { shards.Merge(perfect.Deps) })))

		for _, v := range j.Mod.Vars {
			workingSet += v.Elems
		}
	}
	setProcs(true)
	var mtAcc int64
	mtT := timed("profiler.mt", func() {
		mtAcc = profiler.Profile(mt.Mod, mt.Opt).Accesses
	})

	// The stores alone, on a seeded address stream as wide as the probed
	// programs' variables: what one GetSet costs at this working-set size.
	const ops = 1 << 20
	r := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, ops)
	for i := range addrs {
		addrs[i] = 1 + uint64(r.Intn(max(workingSet, 1)))
	}
	perfectStore := sig.NewPerfect()
	perfectT := timed("sig.perfect", func() {
		for i, a := range addrs {
			perfectStore.GetSet(a, sig.Entry{Info: 1, TS: uint64(i)})
		}
	})
	// profiler.Options.Slots defaults to 1<<22, split over a read/write pair.
	sigStore := sig.NewSignature(1 << 21)
	signatureT := timed("sig.signature", func() {
		for i, a := range addrs {
			sigStore.GetSet(a, sig.Entry{Info: 1, TS: uint64(i)})
		}
	})
	log.spans[rootSpan].Dur = int64(time.Since(root))

	out["workloads.build_ms"] = mean(buildMS)
	out["bytecode.compile_ms"] = mean(compileMS)
	out["bytecode.hash_us"] = mean(hashUS)
	out["interp.untraced_ns_per_instr"] = ratio(float64(untraced), float64(instrs))
	out["interp.delivery_ns_per_event"] = ratio(float64(null-untraced), float64(events))
	out["interp.events_per_access"] = ratio(float64(events), float64(accesses))
	out["interp.slowdown_x"] = ratio(float64(traced), float64(untraced))
	out["sig.perfect_getset_ns"] = float64(perfectT) / ops
	out["sig.signature_getset_ns"] = float64(signatureT) / ops
	out["sig.false_dep_share"] = ratio(float64(falseDeps), float64(sigDeps))
	out["profiler.sig_ns_per_access"] = ratio(float64(sigT), float64(accesses))
	out["profiler.sig_skip_ns_per_access"] = ratio(float64(skipT), float64(accesses))
	out["profiler.skip_share"] = ratio(float64(skipped), float64(skippable))
	out["profiler.par_ns_per_access"] = ratio(float64(parT), float64(accesses))
	out["profiler.mt_ns_per_access"] = ratio(float64(mtT), float64(mtAcc))
	out["profiler.depshards_merge_us"] = mean(shardUS)
	out["remote.encode_us"] = mean(encUS)
	out["remote.decode_us"] = mean(decUS)
	out["remote.module_bytes"] = mean(bytes)
	return nil
}
