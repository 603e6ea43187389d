// Package mem implements the interpreter's simulated address space as a
// segmented, lazily materialized arena. The flat []float64 it replaces was
// allocated and zeroed in full (globals + 64 thread stacks ≈ 32MB) on every
// interpreter construction, even though most workloads are single-threaded
// and touch a handful of pages; profilers built on shadow memory treat the
// address space as a first-class subsystem for exactly this reason.
//
// Layout (identical to the historical flat arena, page-aligned):
//
//	[0]                     unused, so 0 can mean "no address"
//	[1, GlobalsEnd)         globals, in module declaration order
//	[StacksBase, HeapBase)  MaxThreads stacks of StackElems each, one page
//	                        per simulated thread
//	[HeapBase, ...)         heap, bump-allocated with per-size free lists
//
// Storage is a page table: PageSize-element pages materialize on first
// store (loads from untouched pages read 0, exactly like a zeroed arena,
// without materializing anything). Reset zeroes only the pages dirtied
// since the last reset — O(segments touched), not O(address space) — which
// is what makes arenas cheap to recycle through a Pool.
package mem

// Page geometry. One page is also exactly one thread stack, so "stack
// segments materialized" and "stack pages touched" coincide.
const (
	// PageShift is the log2 of the page size in elements.
	PageShift = 16
	// PageSize is the number of float64 elements per page.
	PageSize = 1 << PageShift
	pageMask = PageSize - 1

	// MaxThreads is the maximum number of simulated threads, and therefore
	// the number of stack segments the layout reserves.
	MaxThreads = 64
	// StackElems is the size of one thread's stack segment.
	StackElems = PageSize
)

// Layout is the static segment layout of one module: pure sizes, no
// storage. Two modules with the same number of global elements share a
// layout.
type Layout struct {
	// GlobalsEnd is the first address after the last global (globals start
	// at address 1).
	GlobalsEnd uint64
	// StacksBase is the page-aligned base of the thread-stack segments.
	StacksBase uint64
	// HeapBase is the first heap address.
	HeapBase uint64
}

// NewLayout builds the layout for a module whose globals occupy
// [1, globalsEnd).
func NewLayout(globalsEnd uint64) Layout {
	stacks := (globalsEnd + pageMask) &^ uint64(pageMask)
	return Layout{
		GlobalsEnd: globalsEnd,
		StacksBase: stacks,
		HeapBase:   stacks + MaxThreads*StackElems,
	}
}

// StackBase returns the base address of thread tid's stack segment.
func (l Layout) StackBase(tid int32) uint64 {
	return l.StacksBase + uint64(tid)*StackElems
}

// Space is one simulated address space. It is single-goroutine (one
// interpreter owns it at a time); reuse across runs goes through Reset or a
// Pool.
type Space struct {
	layout Layout
	// pages is the page table. A nil entry is an untouched page: loads
	// read 0, the first store materializes it.
	pages [][]float64
	// dirty lists the pages written since the last Reset; Reset zeroes
	// exactly these.
	dirty []uint32
	// spare holds zeroed pages detached by Reset, reused by the next
	// materialization instead of a fresh allocation.
	spare [][]float64

	heapNext uint64
	maxHeap  uint64
	free     map[int][]uint64 // heap block size -> reusable bases
}

// NewSpace creates an empty space for the given layout. Nothing is
// materialized: the construction cost is one page-table slice of nil
// entries.
func NewSpace(l Layout) *Space {
	return &Space{
		layout:   l,
		pages:    make([][]float64, pagesFor(l.HeapBase)),
		heapNext: l.HeapBase,
		free:     map[int][]uint64{},
	}
}

func pagesFor(bound uint64) int { return int((bound + pageMask) >> PageShift) }

// Layout returns the space's segment layout.
func (s *Space) Layout() Layout { return s.layout }

// Bound returns the first invalid address: every address in [0, Bound) is
// addressable (heap growth raises it).
func (s *Space) Bound() uint64 { return s.heapNext }

// TryLoad reads one element if addr is in bounds, reporting success. It is
// shaped to inline into interpreter dispatch loops; callers fall back to
// their full load path (with its range panic) when it reports false.
func (s *Space) TryLoad(addr uint64) (float64, bool) {
	if addr >= s.heapNext {
		return 0, false
	}
	p := s.pages[addr>>PageShift]
	if p == nil {
		return 0, true // untouched pages read 0
	}
	return p[addr&pageMask], true
}

// TryStore writes one element if addr is in bounds and its page is already
// materialized, reporting success. Like TryLoad it is shaped to inline
// into dispatch loops; the false cases (range violation, first touch of a
// page) fall back to the caller's full store path.
func (s *Space) TryStore(addr uint64, v float64) bool {
	if addr >= s.heapNext {
		return false
	}
	p := s.pages[addr>>PageShift]
	if p == nil {
		return false
	}
	p[addr&pageMask] = v
	return true
}

// Load reads one element. Untouched pages read 0 without materializing.
func (s *Space) Load(addr uint64) float64 {
	p := s.pages[addr>>PageShift]
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Store writes one element, materializing the page on first touch.
func (s *Space) Store(addr uint64, v float64) {
	p := s.pages[addr>>PageShift]
	if p == nil {
		s.storeSlow(addr, v)
		return
	}
	p[addr&pageMask] = v
}

func (s *Space) storeSlow(addr uint64, v float64) {
	s.page(uint32(addr >> PageShift))[addr&pageMask] = v
}

// page materializes page i (zeroed, preferring a spare page recycled by
// Reset) and marks it dirty.
func (s *Space) page(i uint32) []float64 {
	p := s.pages[i]
	if p == nil {
		if n := len(s.spare); n > 0 {
			p = s.spare[n-1]
			s.spare[n-1] = nil
			s.spare = s.spare[:n-1]
		} else {
			p = make([]float64, PageSize)
		}
		s.pages[i] = p
		s.dirty = append(s.dirty, i)
	}
	return p
}

// Alloc reserves n elements on the heap, reusing freed blocks of the same
// size so addresses get recycled (the hazard the variable lifetime analysis
// guards against).
func (s *Space) Alloc(n int) uint64 {
	if lst := s.free[n]; len(lst) > 0 {
		base := lst[len(lst)-1]
		s.free[n] = lst[:len(lst)-1]
		return base
	}
	base := s.heapNext
	s.heapNext += uint64(n)
	if need := pagesFor(s.heapNext); need > len(s.pages) {
		s.pages = append(s.pages, make([][]float64, need-len(s.pages))...)
	}
	if used := s.heapNext - s.layout.HeapBase; used > s.maxHeap {
		s.maxHeap = used
	}
	return base
}

// Free returns a heap block for reuse by a later Alloc of the same size.
func (s *Space) Free(base uint64, n int) {
	s.free[n] = append(s.free[n], base)
}

// MaxHeap returns the high-water heap footprint in elements since the last
// Reset.
func (s *Space) MaxHeap() uint64 { return s.maxHeap }

// Reset returns the space to its freshly constructed state in time
// proportional to the pages dirtied since the last Reset. Dirtied pages are
// zeroed and detached into the spare list, so the next run reuses their
// storage without reallocating.
func (s *Space) Reset() {
	for _, i := range s.dirty {
		p := s.pages[i]
		clear(p)
		s.pages[i] = nil
		s.spare = append(s.spare, p)
	}
	s.dirty = s.dirty[:0]
	s.heapNext = s.layout.HeapBase
	s.maxHeap = 0
	clear(s.free)
}

// retarget makes a Reset space a space for layout l, as NewSpace(l) would
// have built it: Reset left no page attached and the heap state empty, so the
// layout is the three boundaries, the heap cursor and the length of the page
// table. The table keeps its backing array when that is long enough — every
// entry up to its capacity is nil, Reset having detached each page that ever
// was attached — and the spare pages stay, which is the point of recycling.
func (s *Space) retarget(l Layout) {
	s.layout = l
	s.heapNext = l.HeapBase
	if n := pagesFor(l.HeapBase); n <= cap(s.pages) {
		s.pages = s.pages[:n]
	} else {
		s.pages = make([][]float64, n)
	}
}

// StackPagesTouched counts the materialized thread-stack segments — the
// lazy-materialization observability hook: a single-threaded workload must
// report exactly 1.
func (s *Space) StackPagesTouched() int {
	n := 0
	lo := s.layout.StacksBase >> PageShift
	hi := s.layout.HeapBase >> PageShift
	for i := lo; i < hi; i++ {
		if s.pages[i] != nil {
			n++
		}
	}
	return n
}

// Footprint returns the bytes of materialized page storage currently
// attached to the space (spare pages excluded).
func (s *Space) Footprint() int64 {
	var n int64
	for _, p := range s.pages {
		if p != nil {
			n += PageSize * 8
		}
	}
	return n
}
