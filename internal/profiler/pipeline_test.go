package profiler

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"discopop/internal/bytecode"
	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/sig"
	"discopop/internal/workloads"
)

// pipelineModes is every way the router and the workers are held to the
// serial engine: worker counts that do and do not divide the chunk sizes,
// chunks of one record (every access is a hand-over) up to chunks no run at
// scale 1 fills twice, a balancer that checks after every pushed chunk
// (migrations in flight all the time) and the default one, and a
// multi-threaded target's thread IDs, with and without migrations.
func pipelineModes() []Options {
	var modes []Options
	for _, w := range []int{1, 2, 3, 8} {
		for _, cs := range []int{1, 3, 64, 1024} {
			for _, ri := range []int{1, 0} {
				modes = append(modes, Options{Workers: w, ChunkSize: cs, rebalanceInterval: ri})
			}
		}
	}
	for _, w := range []int{2, 8} {
		modes = append(modes, Options{MT: true, Workers: w}, Options{MT: true, Workers: w, ChunkSize: 3},
			Options{MT: true, Workers: w, ChunkSize: 3, rebalanceInterval: 1})
	}
	return modes
}

// TestMTAloneIsSerial: Options.MT adds thread IDs to dependences and selects
// no engine; without Workers the profile runs on the serial engine.
func TestMTAloneIsSerial(t *testing.T) {
	p := New(synthModule(), Options{MT: true})
	defer p.Stop()
	if p.pipe != nil || p.engP == nil {
		t.Error("Options{MT: true} started the worker pipeline, want the serial engine")
	}
}

func modeName(o Options) string {
	return fmt.Sprintf("mt=%v/w=%d/chunk=%d/rebalance=%d", o.MT, o.Workers, o.ChunkSize, o.rebalanceInterval)
}

// TestPipelineMatchesSerial: over the full workload registry, exact store,
// every pipeline mode produces the canonical dependence table of the serial
// engine (for Options.MT: of a serial engine that records thread IDs). Chunk
// boundaries, ownership, migrations and per-owner removal of freed ranges are
// invisible in the result. With -short every mode still meets a quarter of
// the registry.
func TestPipelineMatchesSerial(t *testing.T) {
	modes := pipelineModes()
	for i, name := range workloads.Names("") {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial := map[bool]string{}
			for _, mt := range []bool{false, true} {
				serial[mt] = canonDeps(profileSerial[sig.Perfect](workloads.MustBuild(name, 1).M,
					Options{MT: mt}, sig.MakePerfect()))
			}
			for j, mode := range modes {
				if testing.Short() && (i+j)%4 != 0 {
					continue
				}
				res := Profile(workloads.MustBuild(name, 1).M, mode)
				if got := canonDeps(res); got != serial[mode.MT] {
					t.Errorf("%s: dependence table diverged from serial\npipeline:\n%s\n\nserial:\n%s",
						modeName(mode), clip(got), clip(serial[mode.MT]))
				}
			}
		})
	}
}

// synthetic event streams: the tests below feed the consumers directly, so
// that each event lands exactly where they say it does.

func synthModule() *ir.Module {
	b := ir.NewBuilder("synth")
	g := b.Global("g", ir.F64)
	fb := b.Func("main")
	fb.Set(g, ir.CF(1))
	return b.Build(fb.Done())
}

func accessEv(kind uint8, addr uint64, line, tid int32) interp.Ev {
	loc := ir.Loc{File: 1, Line: line}
	return interp.Ev{Addr: addr, Sink: bytecode.PackSink(loc, 0) | bytecode.SinkThread(tid) | uint64(kind), Loc: loc, A: 1}
}

func controlEvent(kind uint8, tid int32) interp.Ev {
	return interp.Ev{Sink: bytecode.SinkThread(tid) | uint64(kind)}
}

// TestOrderingEventsAreNotBarriers: lock, unlock and thread-end events hand
// nothing over early, for a sequential and a multi-threaded target alike —
// one producer already routes every access in stream order — and a
// cross-thread RAW across them is recorded once, not reversed.
func TestOrderingEventsAreNotBarriers(t *testing.T) {
	for _, opt := range []Options{{Workers: 2, ChunkSize: 64}, {MT: true, Workers: 2, ChunkSize: 64}} {
		t.Run(modeName(opt), func(t *testing.T) {
			m := synthModule()
			p := New(m, opt)
			defer p.Stop()
			p.ProcessBatch(m, []interp.Ev{
				accessEv(interp.EvStore, 10, 3, 1),
				controlEvent(interp.EvLock, 1),
				controlEvent(interp.EvUnlock, 1),
				accessEv(interp.EvLoad, 10, 4, 2),
				controlEvent(interp.EvThreadEnd, 2),
			})
			if n := len(p.pipe.cur[0].recs); n != 2 {
				t.Errorf("partial chunk holds %d records after the ordering events, want 2", n)
			}
			if got := p.pipe.workers[0].pushed; got != 0 {
				t.Errorf("worker 0 was handed %d chunks before its chunk was full, want 0", got)
			}
			res := p.Result()
			want := Dep{Sink: ir.Loc{File: 1, Line: 4}, Type: RAW, Source: ir.Loc{File: 1, Line: 3},
				SinkThr: -1, SrcThr: -1, CarriedBy: -1}
			if opt.MT {
				want.SinkThr, want.SrcThr = 2, 1
			}
			if res.Deps[want] != 1 {
				t.Errorf("cross-thread RAW %+v not recorded once: %v", want, res.Deps)
			}
			if res.Races != 0 {
				t.Errorf("%d dependences flagged reversed on an ordered stream", res.Races)
			}
		})
	}
}

// TestFreeVarRemovesAtOwnersOnly: a freed range is removed address by
// address at each address's owner. Under signatures this is observable: a
// worker's signature numbers its own residue class densely (addr / W), so in
// worker 0's store an address of worker 1 shares its cell with one of worker
// 0's own. Take a freed range [f, f+2) — f is worker 1's, f+1 worker 0's —
// and a live address x of worker 0 that shares its cell there with f:
// clearing the whole range at worker 0 as well would erase x's status. The
// pair comes from the geometry of the store the profiler itself builds.
func TestFreeVarRemovesAtOwnersOnly(t *testing.T) {
	m := synthModule()
	p := New(m, Options{Store: StoreSignature, Slots: 64, Workers: 2, ChunkSize: 4})
	defer p.Stop()
	probe := p.signature(2) // the geometry of worker 0's store
	var f, x uint64
	found := false
search:
	for f = 3; f < 512; f += 2 {
		for x = 2; x < 512; x += 2 {
			if x != f+1 && probe.Cell(x) == probe.Cell(f) && probe.Cell(x) != probe.Cell(f+1) {
				found = true
				break search
			}
		}
	}
	if !found {
		t.Fatal("no even x below 512 shares a cell of worker 0's signature with an odd f: the layout no longer lets addresses of two owners collide, and this test shows nothing")
	}
	p.ProcessBatch(m, []interp.Ev{
		accessEv(interp.EvStore, x, 2, 0),
		accessEv(interp.EvStore, f, 3, 0),
		{Addr: f, Sink: uint64(interp.EvFreeVar), B: 2},
		accessEv(interp.EvLoad, f, 4, 0), // no RAW: its owner removed it
		accessEv(interp.EvLoad, x, 5, 0), // RAW on line 2: worker 0 kept it
	})
	res := p.Result()
	if res.Accesses != 6 {
		t.Errorf("Accesses = %d, want 6 (4 accesses + 2 removed elements)", res.Accesses)
	}
	var raws []Dep
	for d := range res.Deps {
		if d.Type == RAW {
			raws = append(raws, d)
		}
	}
	if len(raws) != 1 || raws[0].Sink.Line != 5 || raws[0].Source.Line != 2 {
		t.Errorf("f=%d x=%d: RAW dependences = %v, want exactly 1:5 RAW 1:2", f, x, raws)
	}
}

// TestWorkerSignatureUsesItsWholeShare: a worker's signature, built by the
// profiler's own constructor, fills like Formula 2.2 says a signature of its
// share of the slots should, although the worker sees one residue class of
// addresses only. Insert n addresses of one class, in dense runs of whole
// blocks at random places the way arrays lie in memory, and count the distinct
// cells they got: the occupied share must track EstimateFPR(m, n). A layout
// that hashes the block of the address itself leaves (W-1)/W of every block to
// the other workers' classes and cannot get past 1/W.
func TestWorkerSignatureUsesItsWholeShare(t *testing.T) {
	const m = 1 << 16 // one worker's cells
	for _, w := range []int{1, 2, 8, 16} {
		p := newProfiler(synthModule(), Options{Store: StoreSignature, Slots: 2 * w * m, Workers: w})
		st := p.signature(w)
		class := uint64(w - 1)
		rng := rand.New(rand.NewSource(int64(w)))
		cells := map[*sig.Cell]bool{}
		n := 0
		for n < m {
			run := 64 * (1 + rng.Intn(4))
			base := uint64(rng.Int63n(1<<26)) &^ 63 // dense number of the run's first address
			for i := 0; i < run; i++ {
				cells[st.Cell((base+uint64(i))*uint64(w)+class)] = true
			}
			n += run
		}
		got, want := float64(len(cells))/float64(m), sig.EstimateFPR(m, n)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("Workers: %d: %d addresses of class %d occupy %.3f of the worker's %d cells, Formula 2.2 estimates %.3f",
				w, n, class, got, m, want)
		}
		if bound := int64(m)*48 + int64(m/64)*8; st.MemBytes() > bound {
			t.Errorf("Workers: %d: the store reports %d bytes, its share is %d", w, st.MemBytes(), bound)
		}
	}
}

// TestRecIsHalfACacheLineWithoutPointers pins the record layout the router
// and the garbage collector rely on.
func TestRecIsHalfACacheLineWithoutPointers(t *testing.T) {
	if n := unsafe.Sizeof(rec{}); n != 32 {
		t.Errorf("unsafe.Sizeof(rec{}) = %d, want 32", n)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s has kind %v: a record must hold no pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(rec{}), "rec")
	if interp.EvLoad != recLoad || interp.EvStore != recStore {
		t.Error("access event kinds and record kinds differ: the router copies Ev.Sink verbatim")
	}
}

// depFileHash is the sha256 of the dependence file of one profile.
func depFileHash(name string, opt Options) string {
	res := Profile(workloads.MustBuild(name, 1).M, opt)
	var sb strings.Builder
	res.WriteDepFile(&sb, false)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestSignatureOwnershipGolden pins "ownership unchanged": under a small
// signature which dependences are false positives depends on which worker
// sees which address in which order, so the dependence file's bytes move as
// soon as Formula 2.1, the sample stream, a balancer decision or the place
// of a migration in a worker's stream does.
//
// The hashes were re-recorded once, when sig.Signature went from one hashed
// cell per address to hashed 64-cell blocks with a dense per-worker numbering
// (addr / W): which addresses alias changed for every address, so every file
// did. They are reproducible run to run, with the balancer at work too (ties
// at the top-ten cut go by address; migration chunks are not recycled). What
// they pin is unchanged: 512 cells per worker alias thousands of addresses,
// and the plain and balanced files of one program still differ.
func TestSignatureOwnershipGolden(t *testing.T) {
	plain := Options{Store: StoreSignature, Slots: 4096, Workers: 4}
	balanced := Options{Store: StoreSignature, Slots: 4096, Workers: 4, ChunkSize: 64, rebalanceInterval: 25}
	golden := []struct {
		name string
		opt  Options
		want string
	}{
		{"CG", plain, "6b589005992e9c28fb8adeaef663fbf3924c5c62d4c70634a8ec14d1854df477"},
		{"kmeans", plain, "81343169858403f64414a28c523aed61e27b9c53a4813a9b9d825c7964360cbf"},
		{"histogram", plain, "03dd9620edec8c0a35c23a13d179ad9fa8e67ebfa1076bdebaec06c8cbffb228"},
		{"CG", balanced, "9eeb7b077986b09ebe0e4031a8d142fd4e33cf831b2b4d8a7bca594507f152fe"},
		{"kmeans", balanced, "80761f4eb1682d208a07e9c719387193732c7206ce1d02859604ba470d163133"},
		{"histogram", balanced, "7b598d304706e2309516b9256e8170a4b1f0ed195fbef220c1098a09e4c2cd52"},
	}
	for _, g := range golden {
		if got := depFileHash(g.name, g.opt); got != g.want {
			t.Errorf("%s under %s: dependence file hash %s, want %s", g.name, modeName(g.opt), got, g.want)
		}
	}
}

// hotAddressModule is a loop around one scorching address.
func hotAddressModule() *ir.Module {
	b := ir.NewBuilder("hot")
	hot := b.Global("hot", ir.F64)
	arr := b.GlobalArray("arr", ir.F64, 64)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(20000), ir.CI(1), func(i *ir.Var) {
		fb.Set(hot, ir.Add(ir.V(hot), ir.CF(1)))
		fb.SetAt(arr, ir.Mod(ir.V(i), ir.CI(64)), ir.V(hot))
	})
	return b.Build(fb.Done())
}

// TestNegativeRebalanceIntervalDisablesBalancer: the documented off switch.
// The same workload does redistribute at a positive interval, and at 0 the
// default applies.
func TestNegativeRebalanceIntervalDisablesBalancer(t *testing.T) {
	run := func(interval int) *Profiler {
		m := hotAddressModule()
		p := New(m, Options{Workers: 4, ChunkSize: 32, rebalanceInterval: interval})
		interp.New(m, p).Run()
		p.Result()
		return p
	}
	off := run(-1)
	if n := off.pipe.rebalanceCount(); n != 0 {
		t.Errorf("disabled balancer redistributed %d times", n)
	}
	if n := len(off.pipe.redist); n != 0 {
		t.Errorf("disabled balancer left %d entries in redist", n)
	}
	if n := len(off.pipe.counts); n != 0 {
		t.Errorf("disabled balancer sampled %d addresses", n)
	}
	if on := run(50); on.pipe.rebalanceCount() == 0 {
		t.Error("the workload does not redistribute at interval 50 either: the test shows nothing")
	}
	if def := run(0); def.pipe.interval != 2000 {
		t.Errorf("rebalanceInterval 0 checks every %d chunks, want the default 2000", def.pipe.interval)
	}
}

// TestLockedQueuesOnOneP: the lock-based baseline under GOMAXPROCS(1), the
// way the benchmark runs the worker pipelines. A spinner that never yields
// holds the only P while the preempted lock holder cannot release.
func TestLockedQueuesOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := canonDeps(Profile(workloads.MustBuild("CG", 1).M, Options{}))
	done := make(chan string, 1)
	go func() {
		done <- canonDeps(Profile(workloads.MustBuild("CG", 1).M,
			Options{Workers: 2, UseLocked: true, ChunkSize: 8}))
	}()
	select {
	case got := <-done:
		if got != serial {
			t.Error("lock-based queues on one P changed the dependence table")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Workers: 2, UseLocked on one P did not finish within 60 s")
	}
}

// faultingModule stores out of range after some good accesses: the run ends
// in a panic with chunks in flight.
func faultingModule() *ir.Module {
	b := ir.NewBuilder("fault")
	arr := b.GlobalArray("arr", ir.F64, 8)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(1<<40), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.CF(1))
	})
	return b.Build(fb.Done())
}

// goroutinesSettleAt waits for the goroutine count to fall back to want.
func goroutinesSettleAt(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestNoGoroutineOutlivesTheProfile: Result, and Stop after the target
// panicked, leave no worker behind — for both target kinds, both queues, and
// the serial engine that MT alone selects.
func TestNoGoroutineOutlivesTheProfile(t *testing.T) {
	for _, opt := range []Options{
		{Workers: 3, ChunkSize: 16, rebalanceInterval: 5},
		{Workers: 3, UseLocked: true},
		{MT: true, Workers: 3},
		{MT: true},
	} {
		before := runtime.NumGoroutine()
		name := "CG"
		if opt.MT {
			name = "md5-mt"
		}
		if res := Profile(workloads.MustBuild(name, 1).M, opt); res.Accesses == 0 {
			t.Fatalf("%s: nothing profiled", modeName(opt))
		}
		if n := goroutinesSettleAt(before); n > before {
			t.Errorf("%s: %d goroutines after Result, %d before New", modeName(opt), n, before)
		}

		m := faultingModule()
		p := New(m, opt)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the faulting target did not panic", modeName(opt))
				}
				p.Stop()
			}()
			interp.New(m, p).Run()
		}()
		if n := goroutinesSettleAt(before); n > before {
			t.Errorf("%s: %d goroutines after Stop following a target panic, %d before New", modeName(opt), n, before)
		}
		p.Stop() // idempotent
	}
}

// TestProfileStopsWorkersOnFault: Profile of a target that faults at run time
// stops the worker pipeline before the fault reaches its caller — nobody
// holds the Profiler to call Stop on — for both target kinds.
func TestProfileStopsWorkersOnFault(t *testing.T) {
	for _, opt := range []Options{{Workers: 2}, {MT: true, Workers: 2}} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the faulting target did not panic", modeName(opt))
				}
			}()
			Profile(faultingModule(), opt)
		}()
		if n := goroutinesSettleAt(before); n > before {
			t.Errorf("%s: %d goroutines after Profile of a faulting target, %d before", modeName(opt), n, before)
		}
	}
}

// faultyStore is the exact map store with a fault injected: the k-th cell
// resolution (counted over every store of one profiler) panics, as
// sig.Perfect does on an address beyond its range.
type faultyStore struct {
	mapStore
	calls *atomic.Int64
	k     int64
}

type storeFault struct{ call int64 }

func (s *faultyStore) Cell(addr uint64) *sig.Cell {
	if n := s.calls.Add(1); n == s.k {
		panic(storeFault{n})
	}
	return s.mapStore.Cell(addr)
}

// TestWorkerPanicReachesTheCaller: a panic on a worker goroutine, for a
// sequential or a multi-threaded target, is recovered there and re-raised, as
// the same value, on the goroutine that feeds the profiler — in ProcessBatch
// at a chunk hand-over when there is one after the fault, else in Result. The
// failed worker keeps taking chunks, so the run neither hangs nor dies; Stop
// returns and no goroutine outlives it.
func TestWorkerPanicReachesTheCaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		prog string
		k    int64 // which cell resolution panics
	}{
		{"workers2/early", Options{Workers: 2, ChunkSize: 16}, "CG", 100},
		{"workers2/balancing", Options{Workers: 2, ChunkSize: 16, rebalanceInterval: 5}, "CG", 5000},
		{"workers2/locked", Options{Workers: 2, UseLocked: true, ChunkSize: 16}, "CG", 100},
		{"mt/early", Options{MT: true, Workers: 2, ChunkSize: 16}, "md5-mt", 100},
		{"mt/default", Options{MT: true, Workers: 4}, "md5-mt", 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := workloads.MustBuild(tc.prog, 1).M
			p := newProfiler(m, tc.opt)
			calls := new(atomic.Int64)
			attach[faultyStore](p, func(int) faultyStore { return faultyStore{newMapStore(1), calls, tc.k} })
			var got any
			func() {
				defer func() {
					got = recover()
					p.Stop()
				}()
				p.execute(0, nil)
			}()
			if got != (storeFault{tc.k}) {
				t.Errorf("the caller recovered %v, want the worker's %v", got, storeFault{tc.k})
			}
			if n := goroutinesSettleAt(before); n > before {
				t.Errorf("%d goroutines after Stop, %d before New", n, before)
			}
			p.Stop() // idempotent, and the fault is not raised twice
		})
	}
}

// TestWorkerPanicInTheLastChunkReachesResult: a fault in a chunk that is only
// handed over by Result's own final flush has no later ProcessBatch to surface
// in. Result must raise it instead of merging a table a worker abandoned.
func TestWorkerPanicInTheLastChunkReachesResult(t *testing.T) {
	m := synthModule()
	p := newProfiler(m, Options{Workers: 2, ChunkSize: 64})
	calls := new(atomic.Int64)
	attach[faultyStore](p, func(int) faultyStore { return faultyStore{newMapStore(1), calls, 2} })
	p.ProcessBatch(m, []interp.Ev{
		accessEv(interp.EvStore, 10, 3, 0),
		accessEv(interp.EvLoad, 10, 4, 0),
	})
	defer func() {
		if got := recover(); got != (storeFault{2}) {
			t.Errorf("Result raised %v, want the worker's %v", got, storeFault{2})
		}
		p.Stop()
	}()
	p.Result()
	t.Error("Result returned a result although a worker panicked")
}
