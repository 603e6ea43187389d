package mem

import (
	"sync"
	"testing"
)

func TestLayoutAlignment(t *testing.T) {
	for _, globalsEnd := range []uint64{1, 2, PageSize - 1, PageSize, PageSize + 1, 3*PageSize + 7} {
		l := NewLayout(globalsEnd)
		if l.StacksBase%PageSize != 0 {
			t.Fatalf("globalsEnd=%d: StacksBase %d not page-aligned", globalsEnd, l.StacksBase)
		}
		if l.StacksBase < globalsEnd {
			t.Fatalf("globalsEnd=%d: stacks overlap globals", globalsEnd)
		}
		if l.HeapBase != l.StacksBase+MaxThreads*StackElems {
			t.Fatalf("globalsEnd=%d: heap base %d does not follow the stacks", globalsEnd, l.HeapBase)
		}
		if got := l.StackBase(3); got != l.StacksBase+3*StackElems {
			t.Fatalf("StackBase(3) = %d", got)
		}
	}
}

func TestLazyMaterialization(t *testing.T) {
	s := NewSpace(NewLayout(100))
	if s.Footprint() != 0 {
		t.Fatalf("fresh space materialized %d bytes", s.Footprint())
	}
	// Loads from untouched pages read zero without materializing.
	if v := s.Load(42); v != 0 {
		t.Fatalf("untouched load = %v", v)
	}
	if s.Footprint() != 0 {
		t.Fatalf("load materialized %d bytes", s.Footprint())
	}
	// A store materializes exactly one page.
	s.Store(42, 3.5)
	if s.Footprint() != PageSize*8 {
		t.Fatalf("after one store footprint = %d, want one page", s.Footprint())
	}
	if v := s.Load(42); v != 3.5 {
		t.Fatalf("load after store = %v", v)
	}
	// A store into a stack segment materializes just that segment.
	s.Store(s.Layout().StackBase(0), 1)
	if got := s.StackPagesTouched(); got != 1 {
		t.Fatalf("stack pages touched = %d, want 1", got)
	}
	s.Store(s.Layout().StackBase(5), 1)
	if got := s.StackPagesTouched(); got != 2 {
		t.Fatalf("stack pages touched = %d, want 2", got)
	}
}

func TestResetIsEquivalentToFresh(t *testing.T) {
	l := NewLayout(10)
	s := NewSpace(l)
	s.Store(3, 7)
	s.Store(l.StackBase(0)+5, 8)
	base := s.Alloc(100)
	s.Store(base, 9)
	s.Free(base, 100)
	s.Reset()

	if v := s.Load(3); v != 0 {
		t.Fatalf("global survived reset: %v", v)
	}
	if v := s.Load(l.StackBase(0) + 5); v != 0 {
		t.Fatalf("stack slot survived reset: %v", v)
	}
	if s.Bound() != l.HeapBase {
		t.Fatalf("heap not rewound: bound %d, want %d", s.Bound(), l.HeapBase)
	}
	if s.MaxHeap() != 0 {
		t.Fatalf("max heap survived reset: %d", s.MaxHeap())
	}
	// The freed block must not be handed out post-reset (free lists clear):
	// a fresh Alloc bump-allocates from HeapBase again.
	if got := s.Alloc(100); got != l.HeapBase {
		t.Fatalf("post-reset alloc at %d, want %d", got, l.HeapBase)
	}
	if v := s.Load(base); v != 0 {
		t.Fatalf("heap value survived reset: %v", v)
	}
}

func TestHeapFreeListReuse(t *testing.T) {
	s := NewSpace(NewLayout(1))
	a := s.Alloc(16)
	s.Free(a, 16)
	if b := s.Alloc(16); b != a {
		t.Fatalf("freed block not reused: %d vs %d", b, a)
	}
	// Different size does not hit the freed block.
	if c := s.Alloc(8); c == a {
		t.Fatal("size-8 alloc reused a size-16 free block")
	}
}

func TestHeapGrowthExtendsPageTable(t *testing.T) {
	s := NewSpace(NewLayout(1))
	base := s.Alloc(3 * PageSize)
	last := base + 3*PageSize - 1
	if last >= s.Bound() {
		t.Fatalf("allocated address %d out of bound %d", last, s.Bound())
	}
	s.Store(last, 1.25)
	if v := s.Load(last); v != 1.25 {
		t.Fatalf("heap store/load across grown pages = %v", v)
	}
}

func TestPoolRecyclesCleanSpaces(t *testing.T) {
	p := NewPool()
	l := NewLayout(64)
	s := p.Get(l)
	s.Store(7, 1)
	s.Alloc(10)
	p.Put(s)
	s2 := p.Get(l)
	// sync.Pool gives no identity guarantee; whatever comes back must be
	// clean and of the right layout.
	if s2.Layout() != l {
		t.Fatalf("pooled space layout %+v, want %+v", s2.Layout(), l)
	}
	if v := s2.Load(7); v != 0 {
		t.Fatalf("pooled space dirty: %v", v)
	}
	if s2.Bound() != l.HeapBase {
		t.Fatalf("pooled space heap not rewound: %d", s2.Bound())
	}
	p.Put(s2)
	p.Put(nil) // must not panic
}

func TestPoolStatsCounters(t *testing.T) {
	p := NewPool()
	l := NewLayout(64)
	if s := p.Stats(); s != (PoolStats{}) {
		t.Fatalf("fresh pool stats = %+v, want zero", s)
	}
	s1 := p.Get(l) // first checkout must allocate
	st := p.Stats()
	if st.Gets != 1 || st.Fresh != 1 || st.Puts != 0 {
		t.Fatalf("after first Get: %+v, want Gets=1 Fresh=1 Puts=0", st)
	}
	p.Put(s1)
	s2 := p.Get(l)
	st = p.Stats()
	if st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("after recycle: %+v, want Gets=2 Puts=1", st)
	}
	// sync.Pool may drop the recycled space (GC), so Fresh is 1 or 2 —
	// never more than Gets.
	if st.Fresh > st.Gets {
		t.Fatalf("Fresh %d exceeds Gets %d", st.Fresh, st.Gets)
	}
	p.Put(s2)
	p.Put(nil) // nil Put must not count
	if st = p.Stats(); st.Puts != 2 {
		t.Fatalf("after nil Put: Puts=%d, want 2", st.Puts)
	}
}

func TestPoolStatsConcurrent(t *testing.T) {
	p := NewPool()
	l := NewLayout(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := p.Get(l)
				s.Store(1, float64(i))
				p.Put(s)
				p.Stats() // scrape concurrently with traffic
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != 400 || st.Puts != 400 {
		t.Fatalf("concurrent stats %+v, want Gets=Puts=400", st)
	}
	if st.Fresh < 1 || st.Fresh > st.Gets {
		t.Fatalf("Fresh %d out of range [1, %d]", st.Fresh, st.Gets)
	}
}

// dirtySpace leaves marks in every segment of s and in its heap state: what a
// run leaves behind for Reset.
func dirtySpace(s *Space) {
	l := s.Layout()
	s.Store(1, 1)
	s.Store(l.GlobalsEnd-1, 2)
	s.Store(l.StackBase(0)+5, 3)
	s.Store(l.StackBase(7), 4)
	base := s.Alloc(2*PageSize + 9) // grows the page table
	s.Store(base, 5)
	s.Store(base+2*PageSize+8, 6)
	s.Free(base, 2*PageSize+9)
	s.Store(s.Alloc(3), 7)
}

// checkLikeNew fails unless s cannot be told from NewSpace(l).
func checkLikeNew(t *testing.T, s *Space, l Layout) {
	t.Helper()
	ref := NewSpace(l)
	if s.Layout() != l || s.Bound() != ref.Bound() {
		t.Fatalf("layout %+v bound %d, want %+v bound %d", s.Layout(), s.Bound(), l, ref.Bound())
	}
	if len(s.pages) != len(ref.pages) || s.Footprint() != 0 || s.MaxHeap() != 0 || s.StackPagesTouched() != 0 {
		t.Fatalf("page table of %d entries, footprint %d, max heap %d, %d stack pages; a new space has %d entries and nothing else",
			len(s.pages), s.Footprint(), s.MaxHeap(), s.StackPagesTouched(), len(ref.pages))
	}
	for addr := uint64(0); addr < s.Bound(); addr += 1021 {
		if v, ok := s.TryLoad(addr); !ok || v != 0 || s.Load(addr) != 0 {
			t.Fatalf("address %d reads %v (in range: %v), want 0", addr, v, ok)
		}
	}
	if _, ok := s.TryLoad(s.Bound()); ok {
		t.Fatalf("address %d, the bound, is readable", s.Bound())
	}
	// Globals, stacks and a heap that grows, frees and reuses.
	s.Store(l.GlobalsEnd-1, 1.5)
	s.Store(l.StackBase(2)+1, 2.5)
	if s.Load(l.GlobalsEnd-1) != 1.5 || s.Load(l.StackBase(2)+1) != 2.5 || s.StackPagesTouched() != 1 {
		t.Fatalf("stores into globals and a stack segment did not land")
	}
	base := s.Alloc(3 * PageSize)
	if base != l.HeapBase {
		t.Fatalf("first allocation at %d, want the heap base %d", base, l.HeapBase)
	}
	last := base + 3*PageSize - 1
	if s.Bound() != last+1 {
		t.Fatalf("bound %d after allocating up to %d", s.Bound(), last)
	}
	s.Store(last, 3.5)
	if s.Load(last) != 3.5 || s.MaxHeap() != 3*PageSize {
		t.Fatalf("heap store across grown pages reads %v, max heap %d", s.Load(last), s.MaxHeap())
	}
	s.Free(base, 3*PageSize)
	if again := s.Alloc(3 * PageSize); again != base {
		t.Fatalf("freed block not reused: %d, want %d", again, base)
	}
	if next := s.Alloc(5); next != last+1 {
		t.Fatalf("allocation after the block at %d, want %d", next, last+1)
	}
}

// TestPoolServesAnyLayout: a returned space serves the next Get whatever
// layout it asks for — towards a longer page table and towards a shorter one
// — and the result cannot be told from NewSpace; a pool that sees nothing but
// distinct layouts still recycles. (Under the old key, exact Layout, the
// first could not happen and the second allocated an arena, a sync.Pool and a
// map entry per Get.) sync.Pool may drop a Put — it does so on purpose under
// the race detector — so one recycled checkout must be seen within a few
// attempts, not on the first.
func TestPoolServesAnyLayout(t *testing.T) {
	small, large := NewLayout(64), NewLayout(5*PageSize+3)
	for _, c := range []struct {
		name     string
		from, to Layout
	}{{"longer page table", small, large}, {"shorter page table", large, small}} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPool()
			recycled := false
			for try := 0; try < 100 && !recycled; try++ {
				s := p.Get(c.from)
				dirtySpace(s)
				p.Put(s)
				fresh := p.Stats().Fresh
				got := p.Get(c.to)
				recycled = p.Stats().Fresh == fresh
				checkLikeNew(t, got, c.to)
			}
			if !recycled {
				t.Fatalf("a returned space never served a Get of another layout: %+v", p.Stats())
			}
		})
	}
	p := NewPool()
	const gets = 10_000
	for i := uint64(0); i < gets; i++ {
		l := NewLayout(2 + i*7919%10007*97) // distinct; one to fifteen pages of globals, in no order
		s := p.Get(l)
		if s.Layout() != l || s.Bound() != l.HeapBase || len(s.pages) != pagesFor(l.HeapBase) {
			t.Fatalf("checkout %d: layout %+v bound %d pages %d, asked for %+v", i, s.Layout(), s.Bound(), len(s.pages), l)
		}
		if i%64 == 0 {
			s.Store(l.GlobalsEnd-1, 1) // the last page of a table the next, shorter one lacks
		}
		p.Put(s)
	}
	// A dropped Put costs one fresh arena; the race detector drops one in four.
	if st := p.Stats(); st.Gets != gets || st.Puts != gets || st.Fresh > gets/2 {
		t.Fatalf("%d distinct layouts: %+v, want Fresh far below Gets", gets, st)
	}
}
