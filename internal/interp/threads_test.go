package interp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// TestMTStreamsAreGolden pins the interleaving of the simulated threads:
// the event stream of every Starbench-MT workload at scale 1 hashes to the
// recorded value on both engines. The schedule (one statement per grant,
// round-robin, the main thread as scheduler) decides the stream, so a
// change to how threads switch must leave these values alone.
func TestMTStreamsAreGolden(t *testing.T) {
	golden := map[string]traceHasher{
		"md5-mt":           {6060923490505927249, 52128},
		"kmeans-mt":        {9931824063402077350, 38528},
		"c-ray-mt":         {4729788369376783152, 33728},
		"rgbyuv-mt":        {13855122799583688830, 52928},
		"rotate-mt":        {2803092100575951127, 44128},
		"rot-cc-mt":        {9931824063402077350, 38528},
		"streamcluster-mt": {12136662534970807068, 28928},
		"bodytrack-mt":     {2086678063578451174, 26128},
	}
	names := workloads.Names("Starbench-MT")
	if len(names) != len(golden) {
		t.Fatalf("Starbench-MT has %d workloads, the table %d", len(names), len(golden))
	}
	for _, name := range names {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden value", name)
			continue
		}
		m := workloads.MustBuild(name, 1).M
		for _, eng := range engines {
			got := runEngine(m, eng.opts...)
			if (traceHasher{got.sum, got.events}) != want {
				t.Errorf("%s on the %s: stream {%d, %d}, want {%d, %d}",
					name, eng.name, got.sum, got.events, want.sum, want.events)
			}
		}
	}
}

var engines = []struct {
	name string
	opts []Option
}{
	{"walker", []Option{WithTreeWalk()}},
	{"vm", nil},
}

// nestedModule builds a three-level thread tree: main spawns two children,
// each child spawns two grandchildren that add to a shared counter under a
// lock, and every spawning thread Syncs on its own children. With oob set,
// each grandchild also stores out of range on its 10th iteration.
func nestedModule(oob bool) *ir.Module {
	b := ir.NewBuilder(fmt.Sprintf("nested-oob=%t", oob))
	arr := b.GlobalArray("arr", ir.F64, 4)
	n := b.Global("n", ir.F64)
	g := b.Func("grandchild")
	g.For("i", ir.CI(0), ir.CI(20), ir.CI(1), func(i *ir.Var) {
		if oob {
			g.If(ir.Ge(ir.V(i), ir.CI(9)), func() { g.SetAt(arr, ir.CI(4), ir.CF(1)) })
		}
		g.Locked(1, func() { g.Set(n, ir.Add(ir.V(n), ir.CI(1))) })
	})
	gf := g.Done()
	c := b.Func("child")
	c.Spawn(gf)
	c.Spawn(gf)
	c.Sync()
	cf := c.Done()
	mb := b.Func("main")
	mb.Spawn(cf)
	mb.Spawn(cf)
	mb.Sync()
	return b.Build(mb.Done())
}

// TestNestedSpawns: threads spawned by spawned threads run under the same
// schedule on both engines, traced and untraced — the same panic message
// (none without the out-of-range store), the same instruction count and
// the same event stream — and none of them outlives Run, whether it
// returns or panics.
func TestNestedSpawns(t *testing.T) {
	for _, oob := range []bool{false, true} {
		m := nestedModule(oob)
		before := runtime.NumGoroutine()
		var runs [2]nestedRun
		for i, eng := range engines {
			runs[i] = runNested(m, eng.opts...)
		}
		if oob != strings.Contains(runs[0].msg, "out of range") {
			t.Errorf("oob=%t: walker panic %q", oob, runs[0].msg)
		}
		if r := runs[0]; r.msg != r.untracedMsg || r.instrs != r.untraced {
			t.Errorf("oob=%t: traced and untraced runs diverged: %+v", oob, r)
		}
		if runs[0] != runs[1] || runs[0].events == 0 {
			t.Errorf("oob=%t: engines diverged:\n  walker: %+v\n  vm:     %+v", oob, runs[0], runs[1])
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("oob=%t: %d goroutines outlive Run", oob, n-before)
		}
	}
}

// nestedRun is what TestNestedSpawns compares between engines.
type nestedRun struct {
	msg, untracedMsg string
	instrs, untraced int64
	sum              uint64
	events           int64
}

func runNested(m *ir.Module, opts ...Option) (r nestedRun) {
	th := &traceHasher{sum: fnvOffset}
	it := New(m, th, opts...)
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.msg = fmt.Sprint(p)
			}
		}()
		it.Run()
	}()
	r.instrs, r.sum, r.events = it.Instrs, th.sum, th.events
	r.untracedMsg, r.untraced = capturePanic(m, opts...)
	return r
}

// BenchmarkSpawnHandoff measures what one statement of a multi-threaded
// target costs untraced, where the scheduler's handoff between simulated
// threads is most of the work: md5-mt at scales 1 and 4, reported in ns per
// executed statement. Run it on one P:
//
//	go test -run '^$' -bench SpawnHandoff -cpu 1 ./internal/interp
func BenchmarkSpawnHandoff(b *testing.B) {
	for _, scale := range []int{1, 4} {
		m := workloads.MustBuild("md5-mt", scale).M
		b.Run(fmt.Sprintf("md5-mt@%d", scale), func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				instrs += New(m, nil).Run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/stmt")
		})
	}
}
