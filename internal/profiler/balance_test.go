package profiler

import (
	"math/rand"
	"sort"
	"testing"

	"discopop/internal/ir"
)

// newTestPipe builds a 4-worker parallel profiler over a trivial module
// and returns its pipeline.
func newTestPipe(t *testing.T) (*Profiler, *pipeline) {
	t.Helper()
	b := ir.NewBuilder("bal")
	g := b.Global("g", ir.F64)
	fb := b.Func("main")
	fb.Set(g, ir.CF(1))
	m := b.Build(fb.Done())
	p := New(m, Options{Store: StorePerfect, Workers: 4, rebalanceInterval: 1})
	return p, p.pipe
}

// TestTopAddrsMatchesSortReference: the bounded-heap top-K selection must
// agree with a full sort of the sample map, ties included.
func TestTopAddrsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 9, 10, 11, 500} {
		counts := map[uint64]int64{}
		for len(counts) < n {
			counts[uint64(rng.Intn(1<<20)+1)] = int64(rng.Intn(20))
		}
		got := topAddrs(counts, rebalanceTopK)
		type ac = addrCount
		var all []ac
		for a, c := range counts {
			all = append(all, ac{a, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].addr < all[j].addr
		})
		if len(all) > rebalanceTopK {
			all = all[:rebalanceTopK]
		}
		// Counts tie all the time (20 values over up to 500 addresses): the
		// tie order by address makes membership at the cut line, and with it
		// every redistribution, independent of the map's iteration order.
		if len(got) != len(all) {
			t.Fatalf("n=%d: topAddrs returned %d entries, want %d", n, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("n=%d: rank %d = %+v, want %+v", n, i, got[i], all[i])
			}
		}
	}
	// Distinct counts: exact match including addresses.
	counts := map[uint64]int64{}
	for i := 1; i <= 100; i++ {
		counts[uint64(i)] = int64(i)
	}
	got := topAddrs(counts, rebalanceTopK)
	for i, ac := range got {
		wantAddr, wantN := uint64(100-i), int64(100-i)
		if ac.addr != wantAddr || ac.n != wantN {
			t.Fatalf("rank %d = {%d %d}, want {%d %d}", i, ac.addr, ac.n, wantAddr, wantN)
		}
	}
}

// TestRebalanceDecaysHeat is the regression test for the stale-heat bug:
// counts must be halved after every rebalance (and dropped at zero), so an
// address hot early in the run cannot pin the redistribution map forever.
func TestRebalanceDecaysHeat(t *testing.T) {
	p, pp := newTestPipe(t)
	defer p.Stop()
	pp.counts = map[uint64]int64{100: 1 << 10, 200: 3, 300: 1}
	pp.rebalance()
	if got := pp.counts[100]; got != 1<<9 {
		t.Errorf("counts[100] = %d after rebalance, want %d (halved)", got, 1<<9)
	}
	if got := pp.counts[200]; got != 1 {
		t.Errorf("counts[200] = %d after rebalance, want 1", got)
	}
	if _, ok := pp.counts[300]; ok {
		t.Error("counts[300] survived decay to zero; stale entries must be dropped")
	}
	// Ten more rebalances with no fresh samples: the early-hot address
	// must decay out entirely.
	for i := 0; i < 10; i++ {
		pp.rebalance()
	}
	if len(pp.counts) != 0 {
		t.Errorf("counts not empty after decay-only rebalances: %v", pp.counts)
	}
}

// TestRebalanceLateHotAddressTakesOver: with decay in place, an address
// that becomes hot late must displace the early leader in the top ranks.
func TestRebalanceLateHotAddressTakesOver(t *testing.T) {
	p, pp := newTestPipe(t)
	defer p.Stop()
	early, late := uint64(40), uint64(41)
	pp.counts = map[uint64]int64{early: 1 << 12}
	// Phase 1: several rebalances while early is the only hot address.
	for i := 0; i < 6; i++ {
		pp.rebalance()
	}
	// Phase 2: late becomes the hot address.
	pp.counts[late] += 1 << 10
	pp.rebalance()
	top := topAddrs(pp.counts, 1)
	if len(top) == 0 || top[0].addr != late {
		t.Fatalf("late-hot address not the top rank after decay: top=%v counts=%v",
			top, pp.counts)
	}
	// Without decay the early address would still hold 1<<12 > 1<<10 and
	// keep rank 0 forever; with halving it has decayed to 1<<6.
	if c := pp.counts[early]; c >= 1<<10 {
		t.Fatalf("early-hot count %d not decayed below the late-hot count", c)
	}
}

// TestRebalanceOnlyTouchesTopK: redistribution decisions are limited to
// the K heaviest addresses.
func TestRebalanceOnlyTouchesTopK(t *testing.T) {
	p, pp := newTestPipe(t)
	defer p.Stop()
	heavy := map[uint64]bool{}
	pp.counts = map[uint64]int64{}
	for i := 0; i < 50; i++ {
		a := uint64(1000 + i)
		n := int64(10 + i)
		pp.counts[a] = n
		if i >= 50-rebalanceTopK {
			heavy[a] = true
		}
	}
	pp.rebalance()
	for a := range pp.redist {
		if !heavy[a] {
			t.Errorf("address %d entered the redistribution map without being top-%d",
				a, rebalanceTopK)
		}
	}
}
