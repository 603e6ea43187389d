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
	// 97 cells are one whole block; one address materialised it, and the
	// removal did not give it back.
	if want := blockCells*cellBytes + 8; s.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want %d (one block and a one-entry table)", s.MemBytes(), want)
	}
	if empty := NewSignature(1 << 21); empty.MemBytes() != 8<<(21-blockShift) {
		t.Fatalf("an untouched signature of 1<<21 cells reports %d bytes, want its 256 KB table", empty.MemBytes())
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

// cellID names one cell of a signature: its block's table entry and its
// offset there. The reference model of applySigOps is keyed by it.
type cellID struct{ block, off uint64 }

func (s *Signature) id(addr uint64) cellID {
	addr /= s.stride
	return cellID{s.index(addr), addr & blockMask}
}

// sigShapes are the signatures applySigOps drives: one block, a cell count
// that is not a multiple of the block size, a prime table length, and the
// dense numbering of one worker out of 2, 3 and 16.
var sigShapes = []struct{ n, w int }{{64, 1}, {97, 1}, {1000, 1}, {4096, 1}, {13 * blockCells, 1}, {256, 2}, {1000, 3}, {4096, 16}}

// applySigOps is applyOps for the signature: the same operation stream — set
// the read half, get-and-set the write half, read a cell, remove a range —
// applied to a Signature and to a map keyed by cell identity. Identical
// behaviour after every operation is the collision property: two addresses
// share a cell entirely (one identity, every access of either seen by both)
// or not at all. On top of it: a removal never materialises a block, an
// address whose block was never touched is one the model holds nothing for,
// and the footprint never exceeds the cell count the signature was built
// with, whatever the stream.
func applySigOps(t *testing.T, shape uint8, ops []byte) {
	t.Helper()
	sh := sigShapes[int(shape)%len(sigShapes)]
	s := MakeSignature(sh.n, sh.w)
	table := len(s.blocks)
	bound := int64(sh.n)*cellBytes + int64(table)*8
	ref := map[cellID]Cell{}
	bases := farBases()
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		o := ops[i : i+opBytes]
		addr := bases[int(o[1])%len(bases)] + (uint64(o[2]) | uint64(o[3]&7)<<8)
		id := s.id(addr)
		e := Entry{Info: uint64(o[5])<<8 | 1, Ctx: int32(i), Op: int32(o[5]), TS: uint64(i)}
		switch o[0] % 4 {
		case 0:
			s.Cell(addr).R = e
			c := ref[id]
			c.R = e
			ref[id] = c
		case 1:
			c := ref[id]
			if got := s.GetSet(addr, e); got != c.W {
				t.Fatalf("op %d: GetSet(%d) returned %+v, want %+v", i/opBytes, addr, got, c.W)
			}
			c.W = e
			ref[id] = c
		case 2:
			if s.blocks[id.block] == nil {
				if c, held := ref[id]; held && c != (Cell{}) {
					t.Fatalf("op %d: address %d lies in a block never materialised, the model holds %+v", i/opBytes, addr, c)
				}
			} else if got, want := *s.Cell(addr), ref[id]; got != want {
				t.Fatalf("op %d: Cell(%d) = %+v, want %+v", i/opBytes, addr, got, want)
			}
		case 3:
			n := int(o[4]) << (o[0] >> 2 & 7) // up to 32640 addresses
			live := s.live
			s.Remove(addr, n)
			if s.live != live {
				t.Fatalf("op %d: Remove(%d, %d) materialised %d blocks", i/opBytes, addr, n, s.live-live)
			}
			for j := 0; j < n; j++ {
				delete(ref, s.id(addr+uint64(j)))
			}
		}
		if got := s.MemBytes(); got > bound {
			t.Fatalf("op %d: MemBytes = %d, above the %d bytes of %d cells and the table", i/opBytes, got, bound, sh.n)
		}
	}
	if len(s.blocks) != table {
		t.Fatalf("the table grew from %d to %d entries", table, len(s.blocks))
	}
	// Every cell the store holds is one the reference holds, and vice versa.
	live := 0
	for i, b := range s.blocks {
		if b == nil {
			continue
		}
		live++
		for j := range b {
			id := cellID{uint64(i), uint64(j)}
			if b[j] != ref[id] {
				t.Fatalf("final: cell %+v = %+v, want %+v", id, b[j], ref[id])
			}
			delete(ref, id)
		}
	}
	if live != s.live {
		t.Fatalf("live = %d, the table holds %d blocks", s.live, live)
	}
	for id, want := range ref {
		if want != (Cell{}) {
			t.Fatalf("final: cell %+v = %+v lies in no materialised block", id, want)
		}
	}
}

// TestSignatureMatchesReference drives every signature shape and its
// cell-identity model with one seeded random operation sequence each.
func TestSignatureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := make([]byte, 15000*opBytes)
	for shape := range sigShapes {
		rng.Read(ops)
		applySigOps(t, uint8(shape), ops)
	}
}

// FuzzSignatureOps is applySigOps over fuzzer-chosen shapes and operation
// streams.
func FuzzSignatureOps(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 5, 0, 0, 7, 1, 0, 69, 0, 0, 9, 2, 0, 5, 0, 0, 0})                  // two addresses, one cell
	f.Add(uint8(5), []byte{0, 3, 8, 1, 0, 3, 1, 3, 9, 1, 0, 4, 3, 3, 8, 1, 2, 0, 2, 3, 9, 1, 0, 0}) // neighbours under w = 2, removed
	f.Add(uint8(7), []byte{31, 1, 0, 0, 255, 0, 1, 4, 1, 2, 0, 1, 31, 4, 0, 0, 255, 0})             // long removals of untouched ranges
	f.Fuzz(applySigOps)
}

// TestSignatureLocality: the 64 addresses of an aligned block are the 64
// cells of one materialised block, in order — neighbouring elements share
// cache lines — wherever in the address space the block lies; under dense
// numbering the same holds for 64 consecutive addresses of one residue class.
func TestSignatureLocality(t *testing.T) {
	for _, w := range []uint64{1, 8} {
		s := MakeSignature(1<<12, int(w))
		class := 3 % w
		for _, base := range farBases() {
			base &^= blockMask // a block-aligned dense number
			addr := func(i uint64) uint64 { return (base+i)*w + class }
			s.Cell(addr(0))
			blk := s.blocks[s.index(base)]
			for i := uint64(0); i < blockCells; i++ {
				if s.Cell(addr(i)) != &blk[i] {
					t.Fatalf("w=%d: address %d is not cell %d of the block of address %d", w, addr(i), i, addr(0))
				}
			}
		}
		if runs := len(farBases()); s.live > runs {
			t.Fatalf("w=%d: %d aligned runs materialised %d blocks", w, runs, s.live)
		}
	}
}

// TestEstimateFPR checks Formula 2.2 empirically: insert n random
// addresses into an m-slot signature and compare occupancy of a probe slot
// with the analytic estimate. The addresses are any 64-bit values: an address
// keeps its low bits as its offset in a block, so a draw of odd addresses
// only would use half of every block and read 0.75 against the formula's 0.50.
func TestEstimateFPR(t *testing.T) {
	m, n := 1024, 700
	est := EstimateFPR(m, n)
	rng := rand.New(rand.NewSource(7))
	trials, hits := 3000, 0
	for tr := 0; tr < trials; tr++ {
		s := NewSignature(m)
		for i := 0; i < n; i++ {
			s.Cell(rng.Uint64()).W = Entry{Info: 1}
		}
		// Probe a fresh address: occupied slot = would-be false positive.
		if !s.Cell(rng.Uint64()).W.Empty() {
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
