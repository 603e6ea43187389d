package profiler

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/queue"
	"discopop/internal/sig"
)

// loopNest drives a profiler's context bookkeeping (controlEv, the code both
// consumers run) with synthetic region events of one thread and remembers
// every context the thread was in.
type loopNest struct {
	m    *ir.Module
	p    *Profiler
	open []int32 // region IDs of the open loops, outermost first
	seen []int32 // every context observed, -1 first
}

const loopNestRegions = 4

func newLoopNest() *loopNest {
	m := &ir.Module{}
	for i := 0; i < loopNestRegions; i++ {
		m.Regions = append(m.Regions, &ir.Region{ID: i, Kind: ir.RLoop})
	}
	p := &Profiler{mod: m, tab: &ctxTable{}, regions: make([]*RegionExec, len(m.Regions))}
	for i := range p.cur {
		p.cur[i] = -1
	}
	return &loopNest{m: m, p: p, seen: []int32{-1}}
}

func (n *loopNest) ev(kind uint8, region int32) {
	n.p.controlEv(n.m, &interp.Ev{Sink: uint64(kind), A: region})
}

func (n *loopNest) enter(region int32) {
	n.ev(interp.EvEnterRegion, region)
	n.open = append(n.open, region)
}

// iterate starts the next iteration of the innermost open loop and returns
// its context.
func (n *loopNest) iterate() int32 {
	n.ev(interp.EvLoopIter, n.open[len(n.open)-1])
	n.seen = append(n.seen, n.p.cur[0])
	return n.p.cur[0]
}

func (n *loopNest) exit() {
	n.ev(interp.EvExitRegion, n.open[len(n.open)-1])
	n.open = n.open[:len(n.open)-1]
}

// play turns a byte string into a sequence of enter / iterate / exit events:
// nests at most six deep, sibling loops and re-entered loops included. It
// stops short of more contexts than an all-pairs check can afford.
func (n *loopNest) play(data []byte) {
	for _, b := range data {
		if len(n.seen) >= 160 {
			break
		}
		switch op := b & 3; {
		case len(n.open) == 0 || op == 2 && len(n.open) < 6:
			n.enter(int32(b>>2) % loopNestRegions)
		case op == 3:
			n.exit()
		default:
			n.iterate()
		}
	}
}

// climbCarriedBy is the reference classification: the lowest-common-ancestor
// climb as first written, one step and one question at a time. ctxTable's
// carriedBy — whose sibling case takes no step at all — is held to it.
func climbCarriedBy(t *ctxTable, a, b int32) int32 {
	if a == b {
		return -1
	}
	lastA, lastB := int32(-1), int32(-1)
	da, db := int32(-1), int32(-1)
	if a >= 0 {
		da = t.node(a).depth
	}
	if b >= 0 {
		db = t.node(b).depth
	}
	for da > db {
		lastA, a = a, t.node(a).parent
		da--
	}
	for db > da {
		lastB, b = b, t.node(b).parent
		db--
	}
	for a != b {
		lastA, a = a, t.node(a).parent
		lastB, b = b, t.node(b).parent
	}
	if lastA < 0 || lastB < 0 {
		// One access's context is an ancestor of the other's: both are in
		// the same iteration of every shared loop.
		return -1
	}
	if r := t.node(lastA).region; r == t.node(lastB).region {
		// Same loop, necessarily different iterations (nodes are unique
		// per iteration): carried by this loop.
		return r
	}
	return -1
}

// checkCarried holds the classification to the reference climb for every pair
// of observed contexts, a == b and -1 included: carriedBy itself, and
// carryRegion, the engines' entry point, which answers equal contexts and
// absent entries without asking it.
func checkCarried(t *testing.T, n *loopNest) {
	t.Helper()
	e := newEngine[sig.Perfect](n.p, sig.MakePerfect())
	for _, a := range n.seen {
		for _, b := range n.seen {
			want := climbCarriedBy(n.p.tab, a, b)
			if got := n.p.tab.carriedBy(a, b); got != want {
				t.Fatalf("carriedBy(%d, %d) = %d, the reference climb says %d", a, b, got, want)
			}
			if got := e.carryRegion(a, b, true); got != want {
				t.Fatalf("carryRegion(%d, %d) = %d, the reference climb says %d", a, b, got, want)
			}
			if got := e.carryRegion(a, b, false); got != -1 {
				t.Fatalf("carryRegion(%d, %d) of an absent entry = %d, want -1", a, b, got)
			}
		}
	}
}

// carriedSeeds are the shapes of nest the classification tells apart, as play
// inputs: enter region r is r<<2|2 (any byte opens a loop when none is open),
// iterate 0, exit 3.
var carriedSeeds = [][]byte{
	{},
	{2, 0, 0, 0, 3},                        // one tight loop: siblings
	{2, 0, 6, 0, 0, 3, 0, 6, 0, 0, 3, 3},   // a nest: cousins across outer iterations
	{2, 0, 6, 0, 3, 10, 0, 3, 0, 6, 0, 3},  // sibling loops under one iteration
	{2, 0, 6, 0, 0, 3, 6, 0, 0, 3, 3},      // one loop entered twice in one iteration
	{2, 0, 6, 0, 10, 0, 14, 0, 2, 0, 6, 0}, // six deep
	{2, 0, 3, 2, 0, 3, 6, 0, 3},            // top-level loops, one after another
	{2, 0, 6, 0, 10, 0, 3, 3, 0, 6, 0, 10}, // exit two levels, come back
}

func TestCarriedFastPathsMatchClimb(t *testing.T) {
	for _, seed := range carriedSeeds {
		n := newLoopNest()
		n.play(seed)
		checkCarried(t, n)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		data := make([]byte, 16+rng.Intn(240))
		rng.Read(data)
		n := newLoopNest()
		n.play(data)
		checkCarried(t, n)
	}
}

// TestCarriedKnownAnswers pins what the classification says, not only that
// two climbs agree — including the imprecision DESIGN.md documents: a loop
// entered twice within one iteration of its parent gives the iterations of
// both entries one parent and one region, so a dependence between them reads
// as carried by that loop. The shortcut must reproduce this, not repair it.
func TestCarriedKnownAnswers(t *testing.T) {
	n := newLoopNest()
	e := newEngine[sig.Perfect](n.p, sig.MakePerfect())
	n.enter(0)
	o1 := n.iterate()
	n.enter(1)
	x1, x2 := n.iterate(), n.iterate()
	n.exit()
	n.enter(2)
	s := n.iterate()
	n.exit()
	n.enter(1) // the same loop again, still in iteration o1
	y := n.iterate()
	n.exit()
	o2 := n.iterate()
	n.enter(1)
	z := n.iterate()
	for _, c := range []struct {
		what string
		a, b int32
		want int32
	}{
		{"one iteration", x1, x1, -1},
		{"two iterations of a loop", x2, x1, 1},
		{"two iterations of the outer loop", o2, o1, 0},
		{"an iteration and an enclosing one", x1, o1, -1},
		{"inside a loop and outside any", x1, -1, -1},
		{"sibling loops under one iteration", s, x1, -1},
		{"the same loop entered again in one parent iteration", y, x1, 1},
		{"inner iterations under different outer iterations", z, x1, 0},
		{"an inner iteration and a later outer one", o2, x1, 0},
	} {
		for _, pair := range [][2]int32{{c.a, c.b}, {c.b, c.a}} {
			if got := climbCarriedBy(n.p.tab, pair[0], pair[1]); got != c.want {
				t.Errorf("%s: the reference climb says (%d, %d) = %d, want %d", c.what, pair[0], pair[1], got, c.want)
			}
			if got := n.p.tab.carriedBy(pair[0], pair[1]); got != c.want {
				t.Errorf("%s: carriedBy(%d, %d) = %d, want %d", c.what, pair[0], pair[1], got, c.want)
			}
			if got := e.carryRegion(pair[0], pair[1], true); got != c.want {
				t.Errorf("%s: carryRegion(%d, %d) = %d, want %d", c.what, pair[0], pair[1], got, c.want)
			}
		}
	}
}

func FuzzCarried(f *testing.F) {
	for _, seed := range carriedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := newLoopNest()
		n.play(data)
		checkCarried(t, n)
	})
}

// ctxTestNode is the node the geometry tests store at index i: any parent
// below i, a region that differs from its neighbours'.
func ctxTestNode(i int32) (parent, region int32) { return i/2 - 1, i * 7 % 1000 }

// TestCtxTableGeometry: nodes round-trip across every block boundary, a block
// starts where the previous one ended, and growth never moves a node.
func TestCtxTableGeometry(t *testing.T) {
	n := int32(3_000_000)
	if testing.Short() {
		n = 200_000
	}
	tab := &ctxTable{}
	var early *ctxNode
	var earlyVal ctxNode
	for i := int32(0); i < n; i++ {
		if got := tab.add(ctxTestNode(i)); got != i {
			t.Fatalf("add #%d returned %d", i, got)
		}
		if i == 10 {
			early = tab.node(5)
			earlyVal = *early
		}
	}
	if tab.node(5) != early || *early != earlyVal {
		t.Fatalf("node 5 moved or changed while the table grew: %p %+v, was %p %+v",
			tab.node(5), *tab.node(5), early, earlyVal)
	}
	for i := int32(0); i < n; i++ {
		parent, region := ctxTestNode(i)
		depth := int32(0)
		if parent >= 0 {
			depth = tab.node(parent).depth + 1
		}
		if got, want := *tab.node(i), (ctxNode{parent: parent, region: region, depth: depth}); got != want {
			t.Fatalf("node(%d) = %+v, want %+v", i, got, want)
		}
	}
	blocks := 0
	for k := 0; ; k++ {
		first := int32(ctxBlock0 * (1<<k - 1)) // 1024·(2^k − 1)
		if first >= n {
			break
		}
		blocks++
		if len(tab.blocks[k]) != ctxBlock0<<k {
			t.Fatalf("block %d holds %d nodes, want %d", k, len(tab.blocks[k]), ctxBlock0<<k)
		}
		if tab.node(first) != &tab.blocks[k][0] {
			t.Fatalf("node(%d) is not the first of block %d", first, k)
		}
		if k > 0 {
			prev := tab.blocks[k-1]
			if tab.node(first-1) != &prev[len(prev)-1] {
				t.Fatalf("node(%d) is not the last of block %d", first-1, k-1)
			}
		}
	}
	for k := blocks; k < ctxBlocks; k++ {
		if tab.blocks[k] != nil {
			t.Fatalf("block %d allocated for %d nodes", k, n)
		}
	}
	// The directory reaches every int32 index.
	if k := ctxBlocks - 1; int64(ctxBlock0)*(1<<(k+1)-1) <= int64(^uint32(0)>>1) {
		t.Fatalf("%d blocks end below the last int32 index", ctxBlocks)
	}
}

// TestCtxNodeIsTwelveBytes: the node is three int32s (no iteration number:
// nothing read it), and what a job pays for its context table before its
// second loop iteration is the directory and one 12 KB block.
func TestCtxNodeIsTwelveBytes(t *testing.T) {
	if s := unsafe.Sizeof(ctxNode{}); s != 12 {
		t.Fatalf("ctxNode is %d bytes, want 12", s)
	}
	var sink *ctxTable
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		tab := &ctxTable{}
		tab.add(-1, 0)
		sink = tab
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sink)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("a context table and its first node allocate %d bytes, want at most 16 KB", per)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tab := &ctxTable{}
		tab.add(-1, 0)
		sink = tab
	}); allocs > 2 {
		t.Fatalf("a context table and its first node take %.0f allocations, want the table and one block", allocs)
	}
}

// TestCtxTableReaderAfterHandOver is the worker's view of the table under the
// race detector: one goroutine appends — across several block allocations —
// and hands each index over an SPSC queue, as the router hands chunks; the
// other resolves only indices it popped, and their ancestors. Nothing else
// orders the two, so a node, a directory entry or a block that the hand-over
// does not publish is a reported race.
func TestCtxTableReaderAfterHandOver(t *testing.T) {
	n := int32(40_000) // six blocks
	tab := &ctxTable{}
	q := queue.NewSPSC[int32](64)
	done := make(chan string, 1)
	go func() {
		prev := int32(-1)
		for want := int32(0); want < n; {
			i, ok := q.TryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			parent, region := ctxTestNode(i)
			if nd := tab.node(i); i != want || nd.parent != parent || nd.region != region {
				done <- "a popped index resolves to another node"
				return
			}
			tab.carriedBy(i, prev) // climbs through earlier blocks
			prev = i
			want++
		}
		done <- ""
	}()
	for i := int32(0); i < n; i++ {
		tab.add(ctxTestNode(i))
		for !q.TryPush(i) {
			runtime.Gosched()
		}
	}
	if msg := <-done; msg != "" {
		t.Fatal(msg)
	}
}
