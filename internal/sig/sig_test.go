package sig

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"discopop/internal/mem"
)

// livePages counts the materialised pages by walking the page table.
func livePages(p *Perfect) int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// farBases are addresses in the far-apart segments of a mem.Space layout —
// the first global, the last cell of the first shadow page, the 64th stack
// segment, the heap — plus one a gigabyte of elements further out.
func farBases() []uint64 {
	l := mem.NewLayout(1000)
	return []uint64{1, pageCells - 1, l.StackBase(mem.MaxThreads - 1), l.HeapBase, l.HeapBase + 1<<30}
}

// opBytes is the length of one encoded operation of applyOps.
const opBytes = 6

// applyOps decodes ops as a stream of store operations — set the read half,
// get-and-set the write half, read a cell, remove a range — over addresses
// within a page's length of farBases, applies it to a fresh Perfect and to
// a map, and demands identical observable behaviour after every operation
// and identical contents at the end. Removal must never materialise a page.
func applyOps(t *testing.T, ops []byte) {
	t.Helper()
	p := NewPerfect()
	ref := map[uint64]Cell{}
	bases := farBases()
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		o := ops[i : i+opBytes]
		addr := bases[int(o[1])%len(bases)] + (uint64(o[2]) | uint64(o[3]&7)<<8)
		e := Entry{Info: uint64(o[5])<<8 | 1, Ctx: int32(i), Op: int32(o[5]), TS: uint64(i)}
		switch o[0] % 4 {
		case 0:
			p.Cell(addr).R = e
			c := ref[addr]
			c.R = e
			ref[addr] = c
		case 1:
			c := ref[addr]
			if got := p.GetSet(addr, e); got != c.W {
				t.Fatalf("op %d: GetSet(%d) returned %+v, want %+v", i/opBytes, addr, got, c.W)
			}
			c.W = e
			ref[addr] = c
		case 2:
			if got, want := *p.Cell(addr), ref[addr]; got != want {
				t.Fatalf("op %d: Cell(%d) = %+v, want %+v", i/opBytes, addr, got, want)
			}
		case 3:
			n := int(o[4]) << (o[0] >> 2 & 7) // up to 32640 cells: sixteen pages
			live := p.live
			p.Remove(addr, n)
			if p.live != live {
				t.Fatalf("op %d: Remove(%d, %d) materialised %d pages", i/opBytes, addr, n, p.live-live)
			}
			for j := 0; j < n; j++ {
				delete(ref, addr+uint64(j))
			}
		}
	}
	if p.live != livePages(p) {
		t.Fatalf("live = %d, page table holds %d pages", p.live, livePages(p))
	}
	// Every cell the store holds is one the reference holds, and vice versa.
	for i, pg := range p.pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			addr := uint64(i)<<pageShift | uint64(j)
			if pg[j] != ref[addr] {
				t.Fatalf("final: cell %d = %+v, want %+v", addr, pg[j], ref[addr])
			}
			delete(ref, addr)
		}
	}
	for addr, want := range ref {
		if want != (Cell{}) {
			t.Fatalf("final: cell %d = %+v lies on no materialised page", addr, want)
		}
	}
}

// TestPerfectMatchesMapReference drives the shadow memory and a plain map
// with the same random operation sequence.
func TestPerfectMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := make([]byte, 100000*opBytes)
	rng.Read(ops)
	applyOps(t, ops)
}

// FuzzPerfectOps is applyOps over fuzzer-chosen operation streams; the seed
// corpus is testdata/fuzz/FuzzPerfectOps.
func FuzzPerfectOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) { applyOps(t, ops) })
}

// TestPerfectPageEdges: the first and last cell of a page, and addresses in
// far-apart segments, are independent cells; an untouched store and
// untouched gaps between segments cost no pages.
func TestPerfectPageEdges(t *testing.T) {
	p := NewPerfect()
	if p.MemBytes() != 0 {
		t.Fatalf("empty store reports %d bytes", p.MemBytes())
	}
	addrs := append(farBases(), pageCells, 2*pageCells-1, 2*pageCells)
	for _, a := range addrs {
		p.Cell(a).W = Entry{Info: a, TS: a}
		p.Cell(a).R = Entry{Info: a + 1}
	}
	for _, a := range addrs {
		if c := *p.Cell(a); c.W.Info != a || c.W.TS != a || c.R.Info != a+1 {
			t.Fatalf("Cell(%d) = %+v", a, c)
		}
	}
	// Pages 0, 1, 2, and one each for the stack, heap and far-heap address.
	if p.live != 6 || livePages(p) != 6 {
		t.Fatalf("materialised %d pages (table holds %d), want 6", p.live, livePages(p))
	}
	for _, a := range []uint64{2, pageCells - 2, pageCells + 1, 2*pageCells - 2} {
		if c := *p.Cell(a); c != (Cell{}) {
			t.Fatalf("neighbour cell %d = %+v, want empty", a, c)
		}
	}
}

// TestPerfectRemoveRange: a range removal clears exactly its cells across
// page boundaries, skips never-materialised pages between materialised
// ones, and materialises nothing — not even past the end of the page table.
func TestPerfectRemoveRange(t *testing.T) {
	p := NewPerfect()
	// Pages 0 and 3 exist; 1 and 2 never do.
	for _, a := range []uint64{pageCells - 2, pageCells - 1, 3 * pageCells, 3*pageCells + 1, 3*pageCells + 2} {
		p.Cell(a).W = Entry{Info: a}
	}
	table := len(p.pages)
	p.Remove(pageCells-1, 2*pageCells+3) // [last cell of page 0, second cell of page 3]
	for a, want := range map[uint64]bool{pageCells - 2: true, pageCells - 1: false,
		3 * pageCells: false, 3*pageCells + 1: false, 3*pageCells + 2: true} {
		if got := !p.Cell(a).W.Empty(); got != want {
			t.Errorf("after range removal: cell %d present = %v, want %v", a, got, want)
		}
	}
	p.Remove(pageCells, 2*pageCells) // nothing but never-materialised pages
	p.Remove(1<<40, 1<<20)           // far beyond the table and the address cap
	p.Remove(3*pageCells+2, 1<<20)   // runs off the end of the table
	p.Remove(5, 0)
	if p.live != 2 || livePages(p) != 2 || len(p.pages) != table {
		t.Fatalf("removal changed the table: %d live pages, %d entries (was 2, %d)", p.live, len(p.pages), table)
	}
	if !p.Cell(3*pageCells + 2).W.Empty() {
		t.Error("single-cell removal at the start of a range running off the table did not clear")
	}
}

// TestPerfectMemBytes: the reported footprint is the materialised pages
// plus the page table — not a function of how many cells are in use.
func TestPerfectMemBytes(t *testing.T) {
	p := NewPerfect()
	for _, a := range farBases() {
		p.Cell(a).R = Entry{Info: 1}
		want := int64(livePages(p))*int64(pageCells)*cellBytes + int64(len(p.pages))*8
		if got := p.MemBytes(); got != want {
			t.Fatalf("after touching %d: MemBytes = %d, want %d", a, got, want)
		}
	}
	before := p.MemBytes()
	p.Remove(1, 1<<20)
	if p.MemBytes() != before {
		t.Errorf("Remove changed MemBytes from %d to %d", before, p.MemBytes())
	}
}

// TestPerfectAddressCap: an address no mem.Space can produce panics with a
// message instead of sizing a page table from it.
func TestPerfectAddressCap(t *testing.T) {
	p := NewPerfect()
	p.Cell(maxAddr - 1).W = Entry{Info: 1}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Cell(maxAddr) did not panic")
		}
		if len(p.pages) != maxAddr>>pageShift {
			t.Errorf("page table grew to %d entries", len(p.pages))
		}
	}()
	p.Cell(maxAddr)
}

// TestSignatureBasics exercises the approximate signature's contract: a
// status is observable at the same address until overwritten or removed
// (collisions may alias, but the slot semantics must hold).
func TestSignatureBasics(t *testing.T) {
	s := NewSignature(97)
	s.Cell(12345).R = Entry{Info: 5}
	if old := s.GetSet(12345, Entry{Info: 7, TS: 1}); !old.Empty() {
		t.Fatalf("first GetSet returned %+v", old)
	}
	if c := *s.Cell(12345); c.W.Info != 7 || c.R.Info != 5 {
		t.Fatalf("cell after writes = %+v", c)
	}
	if old := s.GetSet(12345, Entry{Info: 9}); old.Info != 7 {
		t.Fatalf("second GetSet returned %+v", old)
	}
	s.Remove(12345, 1)
	if c := *s.Cell(12345); c != (Cell{}) {
		t.Fatalf("cell after Remove = %+v", c)
	}
	if s.MemBytes() != 97*cellBytes {
		t.Fatalf("MemBytes = %d", s.MemBytes())
	}
}

// TestSignatureCollisionProperty: two addresses either share a slot (both
// see each other's writes) or are fully independent — never a mix.
func TestSignatureCollisionProperty(t *testing.T) {
	f := func(a, b uint64, infoA, infoB uint64) bool {
		if a == 0 || b == 0 || a == b || infoA == 0 || infoB == 0 {
			return true
		}
		s := NewSignature(64)
		s.Cell(a).W = Entry{Info: infoA}
		s.Cell(b).W = Entry{Info: infoB}
		gotA, gotB := s.Cell(a).W, s.Cell(b).W
		if gotB.Info != infoB {
			return false // own write must be visible
		}
		// Either collision (a sees b's write) or independence (a intact).
		return gotA.Info == infoB || gotA.Info == infoA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateFPR checks Formula 2.2 empirically: insert n random
// addresses into an m-slot signature and compare occupancy of a probe slot
// with the analytic estimate.
func TestEstimateFPR(t *testing.T) {
	m, n := 1024, 700
	est := EstimateFPR(m, n)
	rng := rand.New(rand.NewSource(7))
	trials, hits := 3000, 0
	for tr := 0; tr < trials; tr++ {
		s := NewSignature(m)
		for i := 0; i < n; i++ {
			s.Cell(rng.Uint64() | 1).W = Entry{Info: 1}
		}
		// Probe a fresh address: occupied slot = would-be false positive.
		if !s.Cell(rng.Uint64() | 1).W.Empty() {
			hits++
		}
	}
	got := float64(hits) / float64(trials)
	if math.Abs(got-est) > 0.05 {
		t.Fatalf("empirical FPR %.3f vs estimate %.3f", got, est)
	}
}

// TestEstimateFPRMonotonic: more slots, lower estimated FPR.
func TestEstimateFPRMonotonic(t *testing.T) {
	prev := 1.1
	for _, m := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		v := EstimateFPR(m, 10000)
		if v >= prev {
			t.Fatalf("FPR estimate not decreasing at m=%d: %f >= %f", m, v, prev)
		}
		prev = v
	}
}

func BenchmarkPerfectPutGet(b *testing.B) {
	p := NewPerfect()
	for i := 0; i < b.N; i++ {
		a := uint64(i%65536 + 1)
		c := p.Cell(a)
		c.W = Entry{Info: a, TS: uint64(i)}
		_ = c.R
	}
}

func BenchmarkSignaturePutGet(b *testing.B) {
	s := NewSignature(1 << 16)
	for i := 0; i < b.N; i++ {
		a := uint64(i%65536 + 1)
		c := s.Cell(a)
		c.W = Entry{Info: a, TS: uint64(i)}
		_ = c.R
	}
}
