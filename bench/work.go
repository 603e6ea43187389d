package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"discopop"
	"discopop/internal/bytecode"
	"discopop/internal/ir"
	"discopop/internal/journal"
	"discopop/internal/mem"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// sizing holds every size of a run, so the smoke test can run the same
// code at sizes that finish in seconds.
type sizing struct {
	scaleDiv     int // divides the solo programs' scales
	setups       int // set-up repetitions; setup_s is their median
	poolSize     int // generated modules the traffic draws from
	warmModules  int // reserved modules only the warm-up round sends
	warmInline   int // inline specs of the warm-up round
	maxKernels   int // kernels per generated module or inline spec
	minN, maxN   int // iterations per kernel
	clients      int // closed-loop clients, one connection each
	probeModules int // pool modules a service workload analyses in-process
	hopJobs      int // jobs per client sent through the coordinator to time the hop
	syncJobs     int // jobs whose journal records the journal probe appends and fsyncs
	traceFetches int // job traces fetched to time the trace endpoint
}

var fullSizing = sizing{scaleDiv: 1, setups: 3, poolSize: 1536, warmModules: 32, warmInline: 48,
	maxKernels: 6, minN: 256, maxN: 4096, clients: 2, probeModules: 24, hopJobs: 100,
	syncJobs: 200, traceFetches: 50}

// tinySizing is what bench_test.go runs at (and expected.json covers).
var tinySizing = sizing{scaleDiv: 64, setups: 2, poolSize: 24, warmModules: 4, warmInline: 4,
	maxKernels: 3, minN: 16, maxN: 64, clients: 2, probeModules: 4, hopJobs: 4,
	syncJobs: 8, traceFetches: 4}

type progSpec struct {
	Name  string
	Scale int
}

func (p progSpec) String() string { return fmt.Sprintf("%s@%d", p.Name, p.Scale) }

// soloPrograms lists the programs of a solo workload: the sequential
// targets and the multi-threaded targets.
//
// solo_large runs the programs at scales whose working sets lie far
// outside the CPU caches; solo_variants runs smaller instances of the same
// programs, because it analyses each of them three times per round.
func soloPrograms(workload string, sz sizing) (serial, mt []progSpec) {
	if workload == "solo_large" {
		serial = []progSpec{{"CG", 32}, {"IS", 32}, {"kmeans", 8}, {"facedetection", 32}, {"FT", 32}, {"histogram", 32}}
		mt = []progSpec{{"md5-mt", 4}}
	} else {
		serial = []progSpec{{"CG", 8}, {"IS", 8}, {"kmeans", 4}, {"facedetection", 8}, {"FT", 8}, {"histogram", 8}, {"rotate", 8}}
		mt = []progSpec{{"md5-mt", 4}, {"kmeans-mt", 4}, {"c-ray-mt", 4}}
	}
	for _, ps := range [][]progSpec{serial, mt} {
		for i := range ps {
			ps[i].Scale = max(ps[i].Scale/sz.scaleDiv, 1)
		}
	}
	return serial, mt
}

// Labels of registry workloads: workloads.Truth says only that a loop is
// parallelizable (reductions included) or pipelinable, not which kind.
const (
	labelParallel = "parallel"
	labelDOACROSS = "doacross"
)

func truthLoops(t workloads.Truth) []genLoop {
	var loops []genLoop
	for _, r := range t.DOALL {
		loops = append(loops, genLoop{r.Start.String(), labelParallel})
	}
	for _, r := range t.DOACROSS {
		loops = append(loops, genLoop{r.Start.String(), labelDOACROSS})
	}
	for _, r := range t.Seq {
		loops = append(loops, genLoop{r.Start.String(), labelNone})
	}
	return loops
}

// matchLoops counts the labelled loops whose reported kind agrees with the
// label. A loop with no suggestion at its location was not reported
// parallel.
func matchLoops(loops []genLoop, kinds map[string]string) (matched, labelled int) {
	for _, l := range loops {
		got, found := kinds[l.Loc]
		parallel := found && (got == labelDOALL || got == labelReduction || got == "SPMD-task")
		var ok bool
		switch l.Want {
		case labelDOALL, labelReduction:
			ok = got == l.Want
		case labelParallel:
			ok = parallel
		case labelDOACROSS:
			ok = !parallel
		default:
			ok = !parallel
		}
		if ok {
			matched++
		}
		labelled++
	}
	return matched, labelled
}

// registryJob builds one analysis of a bundled workload.
func registryJob(p progSpec, variant string, opt profiler.Options, exp expectations) (*analysisJob, error) {
	prog, err := workloads.Build(p.Name, p.Scale)
	if err != nil {
		return nil, err
	}
	want, ok := exp[expectKey(p, opt.MT)]
	if !ok {
		return nil, fmt.Errorf("bench/expected.json has no counts for %s; run go run ./bench -write-expected", expectKey(p, opt.MT))
	}
	return &analysisJob{Name: p.String() + "/" + variant, Class: p.String() + "/" + variant, Key: p.String(), Mod: prog.M, Opt: opt,
		Rebuild: func() *ir.Module { return workloads.MustBuild(p.Name, p.Scale).M },
		Loops:   truthLoops(prog.Truth), Expect: &want}, nil
}

// check compares an analysis with what is known about it and returns the
// truth score of its loops. Executed statements and accesses must agree
// under every configuration; the dependence count only under the perfect
// store, since a signature may add false dependences.
func (j *analysisJob) check(out analysisOut, p *problems) (matched, labelled int) {
	if e := j.Expect; e != nil {
		if out.Instrs != e.Instrs || out.Accesses != e.Accesses {
			p.fail("%s: %d instrs %d accesses, want %d and %d", j.Name, out.Instrs, out.Accesses, e.Instrs, e.Accesses)
		} else if j.Opt.Store == profiler.StorePerfect && out.Deps != e.Deps {
			p.fail("%s: %d dependences, want %d", j.Name, out.Deps, e.Deps)
		}
	}
	return matchLoops(j.Loops, out.Kinds)
}

// variant is the same program under another profiler configuration. The
// module is shared: the analyses of a round run one after another.
func (j *analysisJob) variant(name string, opt profiler.Options) *analysisJob {
	v := *j
	v.Name, v.Opt = j.Key+"/"+name, opt
	v.Class = v.Name
	return &v
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizing
	outDir   string
	buildDir string
	exp      expectations
}

func (c runConfig) solo() bool     { return strings.HasPrefix(c.workload, "solo_") }
func (c runConfig) viaCoord() bool { return c.workload == "fleet_hop" }

// requestsPerSecond sizes a service workload's schedule: every client
// sends this many requests per second of -seconds, however long the
// system takes over them. The schedule is fixed so that two runs with one
// seed send the same requests and see the same repeats and evictions, at
// any speed. The numbers are nine tenths of what one client completed per
// second on the two-vCPU box the benchmark was written on (267 and 167),
// so the traffic of an untraced run fills nine tenths of -seconds there.
var requestsPerSecond = map[string]float64{"serve_mixed": 240, "fleet_hop": 150}

// requestsPerClient is the length of an untraced run's schedule per client.
func (c runConfig) requestsPerClient() int {
	return max(int(c.seconds*requestsPerSecond[c.workload]), 1)
}

// needFleet: service workloads always talk to servers; a traced solo run
// boots them too, to report the service layers for its programs.
func (c runConfig) needFleet() bool { return !c.solo() || c.trace }

// needCoord: a traced run always has a coordinator, to time the hop.
func (c runConfig) needCoord() bool { return c.viaCoord() || c.trace }

// state is what one set-up leaves behind for the measured phase.
type state struct {
	cfg runConfig
	dir string

	// In-process side. For a solo workload jobs is the round; for a
	// service workload it is the sample of pool modules analysed
	// in-process (serial, then again under a worker pipeline).
	jobs    []*analysisJob
	repeats []*analysisJob
	mt      *analysisJob
	cache   *discopop.ProfileCache

	// Service side.
	bin      string
	fleet    *fleet
	traffic  *traffic
	clients  []*client
	streams  []*stream
	registry map[string][]genLoop
	// completed is the generator's history: when each payload first
	// completed in this run.
	completed map[string]time.Time
}

func (st *state) target() *server {
	if st.cfg.viaCoord() {
		return st.fleet.coord
	}
	return st.fleet.worker
}

func (st *state) teardown() error {
	var err error
	if st.fleet != nil {
		err = st.fleet.stop()
		st.fleet = nil
	}
	for _, c := range st.clients {
		c.http.CloseIdleConnections()
	}
	return err
}

// setup builds everything a run needs from the seed and finishes with one
// untimed warm-up round, so caches are filled and lazy set-up is done
// before anything is timed: it builds dp-serve, builds the programs or
// generates the module pool, boots the servers, and warms up.
func setup(cfg runConfig, dir string) (*state, error) {
	st := &state{cfg: cfg, dir: dir, registry: map[string][]genLoop{}, completed: map[string]time.Time{}}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if cfg.needFleet() {
		if st.bin, err = buildServer(cfg.buildDir); err != nil {
			return nil, err
		}
	}
	if cfg.solo() {
		err = st.soloJobs()
	} else {
		err = st.serviceJobs()
	}
	if err != nil {
		return nil, err
	}
	// Serial-pipeline jobs first: the signature-store jobs then run back to
	// back and each reuses the 100 MB its predecessor freed. With
	// worker-pipeline jobs between them they fault that memory in anew, and
	// ns_per_access of solo_variants reads 101 ns instead of 80.
	sort.SliceStable(st.jobs, func(a, b int) bool { return !st.jobs[a].par() && st.jobs[b].par() })

	// Warm-up, in-process: every job once, and the cached profiles the
	// repeat jobs are served from.
	st.cache = discopop.NewProfileCacheSize(len(st.repeats))
	setProcs(false)
	for _, j := range st.jobs {
		discopop.Analyze(j.Mod, discopop.Options{Profiler: j.Opt})
	}
	for _, j := range st.repeats {
		discopop.Analyze(j.Mod, discopop.Options{Cache: st.cache, CacheKey: j.Key})
	}
	setProcs(true)

	if cfg.needFleet() {
		if err := st.bootFleet(); err != nil {
			st.teardown()
			return nil, err
		}
	}
	return st, nil
}

// soloJobs builds a solo workload's round: its programs under the
// workload's profiler configurations, and one cached re-analysis each.
func (st *state) soloJobs() error {
	cfg := st.cfg
	serial, mt := soloPrograms(cfg.workload, cfg.sz)
	type variant struct {
		name string
		opt  profiler.Options
	}
	variants := []variant{{"perfect", profiler.Options{}}}
	if cfg.workload == "solo_variants" {
		variants = []variant{
			{"sig", profiler.Options{Store: profiler.StoreSignature}},
			{"sig+skip", profiler.Options{Store: profiler.StoreSignature, Skip: true}},
			{"workers2", profiler.Options{Workers: 2}},
		}
	}
	for _, p := range serial {
		base, err := registryJob(p, variants[0].name, variants[0].opt, cfg.exp)
		if err != nil {
			return err
		}
		st.jobs = append(st.jobs, base)
		for _, v := range variants[1:] {
			st.jobs = append(st.jobs, base.variant(v.name, v.opt))
		}
		st.repeats = append(st.repeats, base.variant("cached", profiler.Options{}))
		st.registry[p.String()] = base.Loops
	}
	if cfg.workload == "solo_large" {
		// The largest program again under the worker pipeline, so the
		// parallel profiler is measured at this working-set size too.
		// (Seven fresh jobs: an odd count keeps the round's median job one
		// program instead of the mean of two.)
		st.jobs = append(st.jobs, st.jobs[0].variant("workers2", profiler.Options{Workers: 2}))
	}
	for i, p := range mt {
		j, err := registryJob(p, "mt", profiler.Options{MT: true, Workers: 2}, cfg.exp)
		if err != nil {
			return err
		}
		if i == 0 {
			st.mt = j
		}
		if cfg.workload == "solo_variants" {
			st.jobs = append(st.jobs, j)
		}
	}
	return nil
}

// serviceJobs generates a service workload's traffic and the in-process
// side of it: a seeded sample of pool modules, profiled under the worker
// pipeline (the service has no option for one) and, in a traced run, one
// layer call at a time.
func (st *state) serviceJobs() error {
	cfg := st.cfg
	var err error
	if st.traffic, err = newTraffic(cfg.seed, cfg.sz); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.seed + 7))
	for _, i := range r.Perm(len(st.traffic.pool))[:cfg.sz.probeModules] {
		g := st.traffic.pool[i].Gen
		serial := &analysisJob{Name: g.Name + "/perfect", Class: "pool/perfect", Key: g.Name, Mod: g.Mod,
			Rebuild: func() *ir.Module { return buildModule(g.Name, g.Kernels).Mod }, Loops: g.Loops}
		par := serial.variant("workers2", profiler.Options{Workers: 2})
		par.Class = "pool/workers2"
		if cfg.trace {
			st.jobs = append(st.jobs, serial)
		}
		st.jobs = append(st.jobs, par)
	}
	for _, name := range registryWorkloads {
		prog, err := workloads.Build(name, 1)
		if err != nil {
			return err
		}
		st.registry[name] = truthLoops(prog.Truth)
	}
	st.mt, err = registryJob(progSpec{"md5-mt", 1}, "mt", profiler.Options{MT: true, Workers: 2}, cfg.exp)
	return err
}

// bootFleet starts the servers and sends the untimed warm-up traffic
// through every server the run will use.
func (st *state) bootFleet() error {
	cfg := st.cfg
	var err error
	if st.fleet, err = startFleet(st.bin, st.dir, cfg.needCoord()); err != nil {
		return err
	}
	for i := 0; i < cfg.sz.clients; i++ {
		st.clients = append(st.clients, newClient(i))
	}
	targets := []*server{st.target()}
	if cfg.trace && !cfg.viaCoord() {
		targets = append(targets, st.fleet.coord)
	}
	for _, t := range targets {
		lists := make([][]request, len(st.clients))
		for c := range lists {
			if st.traffic != nil {
				lists[c] = st.traffic.warmup(c, len(st.clients))
			} else {
				lists[c] = []request{inlineRequest(fmt.Sprintf("w%d_%d", cfg.seed, c), []kernelSpec{{"doall", 64, 1}})}
			}
		}
		for _, rec := range runList(st.clients, t, t == st.fleet.coord, lists) {
			if rec.Err != "" {
				return fmt.Errorf("warm-up: %s", rec.Err)
			}
		}
	}
	if st.traffic != nil {
		for c := range st.clients {
			st.streams = append(st.streams, st.traffic.stream(c))
		}
	}
	return nil
}

// defaultProcs is GOMAXPROCS as the process started with it.
var defaultProcs = runtime.GOMAXPROCS(0)

// setProcs pins the parallelism of the in-process analyses: every timed
// one runs on one P, the probes of the two-thread wall time in a traced run
// (profiler.par_ns_per_access, profiler.mt_ns_per_access) on all of them.
//
// A serial-pipeline analysis uses a second P only for the garbage collector
// running beside it, which on a two-vCPU box made rounds differ by up to a
// third while the same rounds on one P stay within a few percent; the
// collector's work is then inside the measured time instead of beside it.
//
// A worker-pipeline analysis (a producer and two workers, or the target's
// own threads and two workers) on two Ps is three or more busy threads on
// two vCPUs of a shared host, and its wall time follows what the host gives
// the second vCPU: beside one other busy thread the same analysis took twice
// as long (CG@16 under Workers: 2, 57 -> 117 ns per access), on one P a
// third longer at most, like a serial one. On one P the number is the
// pipeline's work per access (routing, chunk queues, the workers' engines,
// the merge), not how well producer and workers overlap. README.md has the
// measurements.
func setProcs(all bool) {
	want := 1
	if all {
		want = defaultProcs
	}
	if runtime.GOMAXPROCS(0) != want {
		runtime.GOMAXPROCS(want)
	}
}

// latencies collects per-job latencies in ms by class.
type latencies struct {
	fresh, repeat []float64
}

func (l *latencies) add(d time.Duration, repeat bool) {
	if repeat {
		l.repeat = append(l.repeat, ms(d))
	} else {
		l.fresh = append(l.fresh, ms(d))
	}
}

// repeatsPerRound is how often a round re-analyses each cached profile.
const repeatsPerRound = 8

// roundStats is one pass over the in-process jobs.
type roundStats struct {
	wall, serial, par, self time.Duration
	serialAcc, parAcc       int64
	jobs                    int
	matched, labelled       int
	// The round's percentiles in ms, by nearest rank: the median fresh job
	// and the slowest job are then each one job of the fixed set, not a
	// mix of two. The slowest job is taken among the serial-pipeline ones:
	// the largest program under the worker pipeline is the longest job of
	// every round, so with it job_p99_ms would be par_ns_per_access under
	// another name. rss is the round's peak RSS in MB.
	freshP50, repeatP50, p99, rss float64
}

// round analyses every job of the set once, each through the whole
// pipeline (discopop.Analyze), then every repeat job from the profile
// cache. With a span log it instead runs the pipeline one layer call at a
// time and records the spans.
func (st *state) round(n int, log *spanLog, agg *layerAgg, vecs *[]jobVec, lat *latencies, p *problems) roundStats {
	var rs roundStats
	// The peak RSS is taken per round (and reported as the median over
	// rounds): one collector-timing spike then moves one round, not the run.
	resetHWM(os.Getpid())
	begin := time.Now()
	root := -1
	if log != nil {
		root = log.add("bench.round", begin, 0, -1, "", map[string]string{"round": fmt.Sprint(n)})
	}
	var fresh, serial, repeat []float64
	setProcs(false)
	for _, j := range st.jobs {
		// Every job starts from a collected heap: whether the previous job's
		// garbage (100 MB of signature slots, say) is still around when this
		// one allocates is otherwise a matter of collector timing, and made
		// peak RSS bimodal. Collections the job itself triggers are timed.
		start := time.Now()
		runtime.GC()
		if log != nil {
			log.add("bench.gc", start, time.Since(start), root, "", nil)
		}
		start = time.Now()
		var out analysisOut
		if log == nil {
			rep := discopop.Analyze(j.Mod, discopop.Options{Profiler: j.Opt})
			d := time.Since(start)
			out = outOf(rep)
			var stages time.Duration
			for _, t := range rep.Times {
				stages += t.D
			}
			rs.self += d - stages
		} else {
			js := log.add("bench.job", start, 0, root, "", map[string]string{"job": j.Name, "round": fmt.Sprint(n)})
			var ls layerSample
			out, ls = analyzeLayers(log, js, j)
			log.spans[js].Dur = int64(time.Since(start))
			if !j.par() {
				agg.add(ls)
			}
			*vecs = append(*vecs, jobVec{ID: fmt.Sprintf("r%d/%s", n, j.Key), Class: j.Class, Stages: map[string]float64{
				"profiler.new": ms(ls.New), "interp.new": ms(ls.InterpNew), "interp.run": ms(ls.Run - ls.Consume - ls.PetConsume),
				"profiler.consume": ms(ls.Consume), "pet.consume": ms(ls.PetConsume), "profiler.result": ms(ls.Result),
				"pet.tree": ms(ls.Tree), "cu.build": ms(ls.CU), "discovery.analyze": ms(ls.Discover), "rank.rank": ms(ls.Rank)}})
		}
		d := time.Since(start)
		lat.add(d, false)
		fresh = append(fresh, ms(d))
		if j.par() {
			rs.par, rs.parAcc = rs.par+d, rs.parAcc+out.Accesses
		} else {
			rs.serial, rs.serialAcc = rs.serial+d, rs.serialAcc+out.Accesses
			serial = append(serial, ms(d))
		}
		m, l := j.check(out, p)
		rs.matched, rs.labelled, rs.jobs = rs.matched+m, rs.labelled+l, rs.jobs+1
	}
	// A repeat takes a tenth of a millisecond, so each is made several
	// times per round to give the round's median enough samples.
	runtime.GC()
	for i := 0; i < repeatsPerRound; i++ {
		for _, j := range st.repeats {
			start := time.Now()
			rep := discopop.Analyze(j.Mod, discopop.Options{Cache: st.cache, CacheKey: j.Key})
			d := time.Since(start)
			if log != nil {
				log.add("pipeline.cached", start, d, root, "", map[string]string{"job": j.Name})
			}
			lat.add(d, true)
			repeat = append(repeat, ms(d))
			if !rep.CacheHit {
				p.fail("%s: repeat analysis was not served from the profile cache", j.Name)
			}
			m, l := j.check(outOf(rep), p)
			rs.matched, rs.labelled, rs.jobs = rs.matched+m, rs.labelled+l, rs.jobs+1
		}
	}
	rs.wall = time.Since(begin)
	if log != nil {
		log.spans[root].Dur = int64(rs.wall)
	}
	rs.freshP50, rs.repeatP50 = percentile(fresh, 0.5), percentile(repeat, 0.5)
	rs.p99 = percentile(append(serial, repeat...), 0.99)
	var err error
	if rs.rss, err = vmHWM(os.Getpid()); err != nil {
		p.fail("peak RSS: %v", err)
	}
	return rs
}

// rounds repeats round until the time is used up (at least once).
func (st *state) rounds(d time.Duration, log *spanLog, agg *layerAgg, vecs *[]jobVec, lat *latencies, p *problems) []roundStats {
	var out []roundStats
	for deadline := time.Now().Add(d); len(out) == 0 || time.Now().Before(deadline); {
		if log != nil {
			start := time.Now()
			log.add("bench.calib", start, calibKernel(), -1, "", nil)
		}
		out = append(out, st.round(len(out), log, agg, vecs, lat, p))
	}
	setProcs(true)
	return out
}

// soloMetrics turns rounds into the in-process end-to-end numbers, each a
// median over rounds.
func soloMetrics(rs []roundStats, out map[string]float64) (matched, labelled, jobs int) {
	var nsSerial, nsPar, rate, freshP50, repeatP50, p99, rss []float64
	for _, r := range rs {
		freshP50, repeatP50 = append(freshP50, r.freshP50), append(repeatP50, r.repeatP50)
		p99, rss = append(p99, r.p99), append(rss, r.rss)
		nsSerial = append(nsSerial, ratio(float64(r.serial), float64(r.serialAcc)))
		nsPar = append(nsPar, ratio(float64(r.par), float64(r.parAcc)))
		rate = append(rate, ratio(float64(r.jobs), r.wall.Seconds()))
		matched, labelled, jobs = matched+r.matched, labelled+r.labelled, jobs+r.jobs
	}
	out["ns_per_access"] = median(nsSerial)
	out["par_ns_per_access"] = median(nsPar)
	out["jobs_per_s"] = median(rate)
	out["fresh_p50_ms"] = median(freshP50)
	out["repeat_p50_ms"] = median(repeatP50)
	out["job_p99_ms"] = median(p99)
	out["peak_rss_mb"] = median(rss)
	return matched, labelled, jobs
}

// serviceAccessCost is the cost per profiled access inside the service:
// over windows of the completion order, the time the profile stage of the
// jobs that ran the profiler took (from the span tree in each result)
// divided by the accesses they profiled. It is the quantity a solo
// workload reports, where the profile stage is all of an analysis. Only
// payloads whose access count the benchmark knows take part: generated
// modules (counted by a local run) and registry workloads (committed in
// expected.json); inline modules are assembled by the server.
func serviceAccessCost(jobs []*jobRecord, exp expectations, windows int) float64 {
	type sample struct {
		profile time.Duration
		acc     int64
	}
	var ss []sample
	for _, j := range jobs {
		if j.View == nil || j.View.Result.CacheHit {
			continue
		}
		switch j.Req.Kind {
		case kindModule:
			_, acc := j.Req.Module.counts()
			ss = append(ss, sample{j.View.profileStage(), acc})
		case kindWorkload:
			if e, ok := exp[j.Req.expectKey()]; ok {
				ss = append(ss, sample{j.View.profileStage(), e.Accesses})
			}
		}
	}
	windows = min(windows, len(ss))
	var costs []float64
	for w := 0; w < windows; w++ {
		var profile time.Duration
		var acc int64
		for _, s := range ss[w*len(ss)/windows : (w+1)*len(ss)/windows] {
			profile, acc = profile+s.profile, acc+s.acc
		}
		costs = append(costs, ratio(float64(profile), float64(acc)))
	}
	return median(costs)
}

// latenciesOf collects the latencies of the verified jobs.
func latenciesOf(jobs []*jobRecord) *latencies {
	l := &latencies{}
	for _, j := range jobs {
		if j.View != nil {
			l.add(j.latency(), j.Repeat)
		}
	}
	return l
}

// runWorkload performs one run: repeated set-up, the measured phase for
// the configured time, verification, and the metrics of the run's mode.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Metrics: map[string]float64{}}
	dir := filepath.Join(cfg.buildDir, fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dir)

	var st *state
	var setupS []float64
	for i := 0; i < cfg.sz.setups; i++ {
		if st != nil {
			if err := st.teardown(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if st, err = setup(cfg, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer st.teardown()
	res.Metrics["setup_s"] = median(setupS)

	p := &problems{}
	var err error
	if cfg.trace {
		err = st.measureTraced(res, p)
	} else {
		err = st.measure(res, p)
	}
	if err != nil {
		return nil, err
	}
	res.Failed, res.Problems = p.failed, p.list
	res.Correct = p.failed == 0 && res.Attempted > 0
	return res, nil
}

// measure is the run with tracing off: the end-to-end metrics.
func (st *state) measure(res *runResult, p *problems) error {
	cfg, out := st.cfg, res.Metrics
	total := time.Duration(cfg.seconds * float64(time.Second))
	var lat *latencies
	var matched, labelled int
	if cfg.solo() {
		lat = &latencies{}
		rs := st.rounds(total, nil, nil, nil, lat, p)
		matched, labelled, res.Attempted = soloMetrics(rs, out)
	} else {
		// The fixed schedule in equal segments; it fills nine tenths of the
		// run at the speed requestsPerSecond was sized for. Rates, tail
		// latencies and peak RSS are taken per segment and reported as the
		// median over segments: one stall then moves one segment, not the
		// result.
		//
		// The driver wants every metric from every workload and the service
		// has no worker-pipeline option, so before each segment the sampled
		// pool modules are profiled in-process under one, once; only
		// par_ns_per_access comes from those rounds. They are spread over the
		// run because this box has slow stretches of several seconds: all
		// rounds in a row at one end of the run sat inside one or outside,
		// and the runs' medians fell into two groups a third apart.
		const segments = 5
		perClient := max(cfg.requestsPerClient()/segments, 1)
		var jobs []*jobRecord
		var inproc []roundStats
		var rate, p99, peaks []float64
		for s := 0; s < segments; s++ {
			inproc = append(inproc, st.rounds(0, nil, nil, nil, &latencies{}, p)...)
			st.fleet.peakRSS() // restarts the servers' peak accounting
			begin := time.Now()
			seg := runStreams(st.clients, st.target(), cfg.viaCoord(), st.streams, perClient, false)
			took := time.Since(begin)
			mb, err := st.fleet.peakRSS()
			if err != nil {
				return fmt.Errorf("peak RSS of the servers: %w", err)
			}
			peaks = append(peaks, mb)
			var lats []float64
			for _, j := range seg {
				if j.Err == "" {
					lats = append(lats, ms(j.latency()))
				}
			}
			rate = append(rate, float64(len(seg))/took.Seconds())
			p99 = append(p99, percentile(lats, 0.99))
			jobs = append(jobs, seg...)
		}
		par := map[string]float64{}
		var parJobs int
		matched, labelled, parJobs = soloMetrics(inproc, par)
		out["par_ns_per_access"] = par["par_ns_per_access"]

		verifyJobs(jobs, cfg.exp, st.completed, p)
		lat = latenciesOf(jobs)
		m, l := truthOfJobs(jobs, st.registry)
		matched, labelled = matched+m, labelled+l
		res.Attempted = len(jobs) + parJobs
		out["ns_per_access"] = serviceAccessCost(jobs, cfg.exp, 8)
		out["jobs_per_s"] = median(rate)
		out["job_p99_ms"] = median(p99)
		out["fresh_p50_ms"] = median(lat.fresh)
		out["repeat_p50_ms"] = median(lat.repeat)
		out["peak_rss_mb"] = median(peaks)
	}
	out["truth_match_share"] = ratio(float64(matched), float64(labelled))
	n := len(lat.fresh) + len(lat.repeat)
	fmt.Printf("%s: %d jobs (%d fresh, %d repeat), %d beyond p99, %d of %d labelled loops match\n",
		cfg.workload, n, len(lat.fresh), len(lat.repeat), n/100, matched, labelled)
	return nil
}

// measureTraced is the traced run: the same workload, first untraced (the
// base of the tracing overhead), then with the benchmark's spans around
// every layer call; then the probes of the layers a whole job cannot time
// apart. It writes the spans as Chrome trace JSON and prints the
// self-time tables and the dissimilar jobs.
func (st *state) measureTraced(res *runResult, p *problems) error {
	cfg, out := st.cfg, res.Metrics
	total := time.Duration(cfg.seconds * float64(time.Second))
	log := &spanLog{}
	var vecs []jobVec
	hc := st.clients[0].http

	before, _, err := st.fleet.counters(hc)
	if err != nil {
		return err
	}
	chits0, cmiss0, _ := bytecode.Shared.Stats()
	pool0 := mem.Default.Stats()
	phits0, pmiss0 := st.cache.Stats()

	// In-process: a solo workload spends most of the run here; a service
	// workload only samples its pool.
	inproc := total * 35 / 100
	if !cfg.solo() {
		inproc = total * 5 / 100
	}
	overhead := st.tracedRounds(inproc, log, &vecs, res, p)

	// Service: a service workload's own traffic; the solo programs as
	// workload submissions through the coordinator otherwise.
	// jobs went to the workload's target; extra, when the target is not the
	// coordinator, went through it afterwards to time the hop.
	var jobs, extra []*jobRecord
	if cfg.solo() {
		lists := make([][]request, len(st.clients))
		for i, j := range st.repeats {
			// Each program twice on one client: fresh, then repeat.
			c := i % len(lists)
			lists[c] = append(lists[c], workloadRequest(j.Key), workloadRequest(j.Key))
		}
		jobs = runList(st.clients, st.fleet.coord, true, lists)
		verifyJobs(jobs, cfg.exp, st.completed, p)
	} else {
		// What is left of the nine tenths after the in-process rounds, as a
		// share of the untraced run's schedule: two phases of four ninths.
		jobs, extra, overhead = st.tracedTraffic(max(cfg.requestsPerClient()*4/9, 1), res, p)
	}
	out["bench.trace_overhead_pct"] = overhead
	all := append(append([]*jobRecord{}, jobs...), extra...)
	hopJobs := extra
	if len(extra) == 0 {
		hopJobs = jobs
	}
	res.Attempted += len(all)
	serviceStats(all, out)
	st.serviceSpans(log, all, &vecs)

	traceMS, err := fetchTraces(hc, st.fleet.coord, hopJobs, cfg.sz.traceFetches)
	if err != nil {
		return err
	}
	out["obs.trace_fetch_ms"] = mean(traceMS)

	after, scrapeMS, err := st.fleet.counters(hc)
	if err != nil {
		return err
	}
	out["metrics.scrape_ms"] = mean(scrapeMS)
	delta := func(name string) float64 { return after[name] - before[name] }
	share := func(part, rest string) float64 { return ratio(delta(part), delta(part)+delta(rest)) }
	out["remote.fallbacks"] = delta("dp_remote_fallbacks_total")
	out["remote.peer_failures"] = delta("dp_peer_failures_total")
	out["journal.appends_per_job"] = ratio(delta("dp_journal_appends_total"), delta("dp_jobs_completed_total"))
	out["journal.syncs_per_job"] = ratio(delta("dp_journal_syncs_total"), delta("dp_jobs_completed_total"))
	out["journal.bytes_per_job"] = ratio(delta("dp_journal_bytes_total"), delta("dp_jobs_completed_total"))
	out["journal.compactions"] = delta("dp_journal_compactions_total")
	out["server.rejected_share"] = share("dp_jobs_rejected_total", "dp_jobs_accepted_total")
	out["server.gc_pause_ms"] = 1000 * delta("dp_go_gc_pause_seconds_total")
	// The caches and the arena pool of the process that did the workload's
	// analyses: this one for a solo workload, the servers otherwise.
	if cfg.solo() {
		chits, cmiss, _ := bytecode.Shared.Stats()
		pool := mem.Default.Stats()
		phits, pmiss := st.cache.Stats()
		out["bytecode.cache_hit_share"] = ratio(float64(chits-chits0), float64(chits-chits0+cmiss-cmiss0))
		out["mem.pool_fresh_share"] = ratio(float64(pool.Fresh-pool0.Fresh), float64(pool.Gets-pool0.Gets))
		out["pipeline.cache_hit_share"] = ratio(float64(phits-phits0), float64(phits-phits0+pmiss-pmiss0))
		out["pipeline.cache_evictions"] = float64(st.cache.Evictions())
	} else {
		out["bytecode.cache_hit_share"] = share("dp_compile_cache_hits_total", "dp_compile_cache_misses_total")
		out["mem.pool_fresh_share"] = ratio(delta("dp_pool_fresh_total"), delta("dp_pool_gets_total"))
		out["pipeline.cache_hit_share"] = share("dp_profile_cache_hits_total", "dp_profile_cache_misses_total")
		out["pipeline.cache_evictions"] = delta("dp_profile_cache_evictions_total")
	}

	// The layers a whole job cannot time apart, on the same programs.
	if err := probeLayers(log, st.jobs, st.mt, cfg.seed, total*15/100, out); err != nil {
		return err
	}
	var calib []float64
	for _, s := range log.spans {
		if s.Name == "bench.calib" {
			calib = append(calib, ms(time.Duration(s.Dur)))
		}
	}
	out["bench.calib_ms"] = median(calib)
	out["bench.samples"] = float64(len(all))

	// The journal alone, with this run's own records; then the replay of
	// the log the run left behind, once the servers have let go of it.
	if err := journalProbe(filepath.Join(st.dir, "probe.journal"), all, cfg.sz.syncJobs, out); err != nil {
		return err
	}
	path := st.target().journal
	if err := st.teardown(); err != nil {
		return err
	}
	start := time.Now()
	jnl, recs, err := journal.OpenWith(path, journal.Options{})
	if err != nil {
		return fmt.Errorf("replay %s: %w", path, err)
	}
	out["journal.replay_ms"] = ms(time.Since(start))
	jnl.Close()
	if len(recs) == 0 {
		p.fail("journal %s replayed no records", path)
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := log.write(tracePath); err != nil {
		return err
	}
	fmt.Printf("%s: wrote %d spans to %s\n", cfg.workload, len(log.spans), tracePath)
	shares := log.printSelfTimes("the in-process analyses, one layer call at a time", "bench.round")
	fmt.Printf("interp + profiler + pet self time: %.2f %% of round wall time\n",
		100*(shares["interp"]+shares["profiler"]+shares["pet"]))
	log.printSelfTimes("the jobs sent to the servers, as the clients saw them", "server.job")
	printStageShares(all)
	printDissimilar(vecs, 5)
	return nil
}

// tracedRounds runs the in-process jobs for d through discopop.Analyze and
// then for d one layer call at a time with spans, reports the metrics that
// come from those analyses, and returns the tracing overhead in percent.
func (st *state) tracedRounds(d time.Duration, log *spanLog, vecs *[]jobVec, res *runResult, p *problems) float64 {
	out := res.Metrics
	agg := &layerAgg{}
	plain := st.rounds(d, nil, nil, nil, &latencies{}, p)
	alloc0 := totalAlloc()
	traced := st.rounds(d, log, agg, vecs, &latencies{}, p)
	agg.alloc = totalAlloc() - alloc0
	var plainWall, tracedWall, selfUS []float64
	for _, r := range plain {
		plainWall = append(plainWall, float64(r.serial+r.par))
		selfUS = append(selfUS, us(r.self)/float64(len(st.jobs)))
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, float64(r.serial+r.par))
	}
	res.Attempted += (len(plain) + len(traced)) * (len(st.jobs) + repeatsPerRound*len(st.repeats))
	out["pipeline.self_us"] = mean(selfUS)
	out["bench.rounds"] = float64(len(plain) + len(traced))
	agg.metrics(out, len(traced))
	return 100 * (ratio(median(tracedWall), median(plainWall)) - 1)
}

// tracedTraffic sends n requests per client of the workload's schedule
// without and the next n with the trace header, then, unless the workload
// goes through the coordinator anyway, a few jobs through it to time the
// hop. It returns the traced jobs, those extra jobs, and the tracing
// overhead in percent. The mix drifts towards repeats as the pool fills, so
// the two phases are compared class by class.
func (st *state) tracedTraffic(n int, res *runResult, p *problems) (jobs, extra []*jobRecord, overhead float64) {
	cfg := st.cfg
	plain := runStreams(st.clients, st.target(), cfg.viaCoord(), st.streams, n, false)
	jobs = runStreams(st.clients, st.target(), cfg.viaCoord(), st.streams, n, true)
	verifyJobs(plain, cfg.exp, st.completed, p)
	verifyJobs(jobs, cfg.exp, st.completed, p)
	if !cfg.viaCoord() {
		lists := make([][]request, len(st.clients))
		for c := range lists {
			for i := 0; i < cfg.sz.hopJobs; i++ {
				lists[c] = append(lists[c], st.streams[c].next())
			}
		}
		extra = runList(st.clients, st.fleet.coord, true, lists)
		verifyJobs(extra, cfg.exp, st.completed, p)
	}
	res.Attempted += len(plain)
	ul, tl := latenciesOf(plain), latenciesOf(jobs)
	overhead = 100 * ((ratio(median(tl.fresh), median(ul.fresh))+ratio(median(tl.repeat), median(ul.repeat)))/2 - 1)
	return jobs, extra, overhead
}

// serviceSpans records every job's client-side spans with the server's own
// span tree grafted under the wait, and its per-stage vector.
func (st *state) serviceSpans(log *spanLog, jobs []*jobRecord, vecs *[]jobVec) {
	for _, j := range jobs {
		if j.View == nil {
			continue
		}
		node := fmt.Sprintf("client%d", j.Client)
		class := j.Req.Kind + "/fresh"
		if j.Repeat {
			class = j.Req.Kind + "/repeat"
		}
		if j.ViaCoord {
			class += "/hop"
		}
		attrs := map[string]string{"job": j.ID, "class": class}
		root := log.add("server.job", j.T0, j.latency(), -1, node, attrs)
		log.add("server.submit", j.T0, j.T1.Sub(j.T0), root, node, attrs)
		wait := log.add("server.wait", j.T1, j.T2.Sub(j.T1), root, node, attrs)
		log.graft(wait, node, j.View.Result.Spans)
		// The vector holds self times, so a hop does not count the worker's
		// stages twice and the wait is what no server span accounts for.
		stages := map[string]float64{"server.submit": ms(j.T1.Sub(j.T0)), "server.wait": ms(j.T2.Sub(j.T1))}
		for i, self := range selfOf(j.View.Result.Spans) {
			s := j.View.Result.Spans[i]
			stages[stageName(s.Name)] += ms(self)
			if s.Parent < 0 {
				stages["server.wait"] -= ms(time.Duration(s.Dur))
			}
		}
		*vecs = append(*vecs, jobVec{ID: j.ID, Class: class, Stages: stages})
	}
}

// printStageShares prints, for fresh and repeat jobs, the share of the
// client-observed latency each server stage accounts for.
func printStageShares(jobs []*jobRecord) {
	type acc struct {
		lat    time.Duration
		stages map[string]time.Duration
		n      int
	}
	classes := map[string]*acc{}
	for _, j := range jobs {
		if j.View == nil {
			continue
		}
		class := "fresh (profiled)"
		if j.View.Result.CacheHit {
			class = "repeat (cache hit)"
		}
		a := classes[class]
		if a == nil {
			a = &acc{stages: map[string]time.Duration{}}
			classes[class] = a
		}
		a.n++
		a.lat += j.latency()
		for _, s := range j.View.Result.Spans {
			if s.Name != "job" {
				a.stages[s.Name] += time.Duration(s.Dur)
			}
		}
	}
	fmt.Println("\nserver stages as a share of client-observed latency")
	for _, class := range sortedKeys(classes) {
		a := classes[class]
		fmt.Printf("  %s, %d jobs, mean latency %.3f ms:", class, a.n, ms(a.lat)/float64(a.n))
		for _, s := range sortedKeys(a.stages) {
			fmt.Printf(" %s %.1f%%", s, 100*ratio(float64(a.stages[s]), float64(a.lat)))
		}
		fmt.Println()
	}
}

// journalProbe times the journal alone: it appends the three transitions
// of each of the run's own jobs (the finished record carries the job's
// real result) to a log of its own and forces each job to disk.
func journalProbe(path string, jobs []*jobRecord, n int, out map[string]float64) error {
	jnl, _, err := journal.OpenWith(path, journal.Options{})
	if err != nil {
		return err
	}
	defer jnl.Close()
	var appendUS, syncMS []float64
	for _, j := range jobs {
		if j.View == nil {
			continue
		}
		if len(syncMS) >= n {
			break
		}
		var raw struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(j.Body, &raw); err != nil {
			return err
		}
		recs := []journal.Record{
			{Op: journal.OpAccepted, ID: j.ID, Time: j.T0, Workload: j.Req.Key},
			{Op: journal.OpStarted, ID: j.ID, Time: j.T1},
			{Op: journal.OpFinished, ID: j.ID, Time: j.T2, State: "done", Result: raw.Result},
		}
		for _, r := range recs {
			start := time.Now()
			if err := jnl.Append(r); err != nil {
				return err
			}
			appendUS = append(appendUS, us(time.Since(start)))
		}
		start := time.Now()
		if err := jnl.Sync(); err != nil {
			return err
		}
		syncMS = append(syncMS, ms(time.Since(start)))
	}
	out["journal.append_us"] = mean(appendUS)
	out["journal.sync_ms"] = mean(syncMS)
	return nil
}
