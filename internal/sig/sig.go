// Package sig implements the memory-access status stores of Section 2.3.2:
// the fixed-size signature (an approximate membership structure borrowed
// from transactional memory, here with a single hash function so that
// elements can be removed by the variable lifetime analysis) and the
// "perfect signature" — directly indexed shadow memory, used both as the
// 100%-accurate profiling mode (Section 2.3.7) and as the baseline for
// measuring the false-positive/false-negative rates of the approximate
// signature (Table 2.6).
//
// Both stores keep one Cell per tracked address: the status of the last
// read and of the last write side by side, so that a load or a store
// resolves its address once and finds both halves on one cache line.
package sig

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Entry is the access status of one half of a cell: the packed identity of
// the most recent access (source location, variable, thread, static
// operation) plus the loop-context ID used to classify loop-carried
// dependences and the logical timestamp of the access. A zero Info means
// "empty".
type Entry struct {
	Info uint64 // packed by the profiler; 0 = empty
	Ctx  int32  // loop-context table index (-1 = none)
	Op   int32  // static memory-operation ID (statusRead/statusWrite of §2.4)
	TS   uint64 // logical timestamp of the access
}

// Empty reports whether the entry holds no access.
func (e Entry) Empty() bool { return e.Info == 0 }

// Cell is the status of one address: its last read and its last write (the
// read signature and the write signature of Figure 2.2, fused).
type Cell struct {
	R, W Entry
}

const cellBytes = int64(unsafe.Sizeof(Cell{})) // 48

// Signature geometry: cells live in blocks of blockCells, and it is the block
// that is hashed. An address keeps its offset inside its block, so
// neighbouring elements share cache lines as they do in Perfect, and a block
// is allocated when it is first touched.
const (
	blockShift = 6
	blockCells = 1 << blockShift // 3 KB of cells
	blockMask  = blockCells - 1
)

type block [blockCells]Cell

// Signature is the approximate store: a fixed-length table of blocks
// addressed by a single hash function of the block number addr>>blockShift.
// Two addresses whose blocks hash to one table entry and whose offsets agree
// overwrite each other's state, producing the false positives and false
// negatives quantified in Section 2.5.1. Because there is only one hash
// function, removal is a clear of the cell. The table length is the
// signature's capacity and never changes; blocks materialise on first touch,
// so the memory in use follows the footprint of the profiled program.
type Signature struct {
	blocks []*block // nil = never touched
	live   int      // materialised blocks
	// stride > 1 numbers one residue class densely: the store is one of
	// stride workers' and sees (almost) only addresses of one class modulo
	// stride (Formula 2.1), which would otherwise use 1/stride of every block.
	stride uint64
}

// NewSignature returns a signature with room for n cells, each holding a
// read and a write status.
func NewSignature(n int) *Signature {
	s := MakeSignature(n, 1)
	return &s
}

// MakeSignature returns, by value for embedding in generic engines, a
// signature with room for n cells — rounded down to whole blocks, one block
// at least — for one of w workers: with w > 1 it numbers addresses by their
// quotient addr / w, the dense numbering of one residue class modulo w.
func MakeSignature(n, w int) Signature {
	if n <= 0 || w <= 0 {
		panic("sig: signature size and worker count must be positive")
	}
	return Signature{blocks: make([]*block, max(n>>blockShift, 1)), stride: uint64(w)}
}

// index returns the table entry of the block holding (dense) address addr:
// a multiplicative hash of the block number, reduced to the table length by
// taking the high word of the product — no division, for any table length.
func (s *Signature) index(addr uint64) uint64 {
	i, _ := bits.Mul64((addr>>blockShift)*0x9E3779B97F4A7C15, uint64(len(s.blocks)))
	return i
}

// Cell returns the cell addr maps to, materialising its block on first touch.
func (s *Signature) Cell(addr uint64) *Cell {
	if s.stride > 1 {
		addr /= s.stride
	}
	i := s.index(addr)
	b := s.blocks[i]
	if b == nil {
		b = new(block)
		s.blocks[i] = b
		s.live++
	}
	return &b[addr&blockMask]
}

// GetSet records e as the latest write status of addr and returns the
// previous one.
func (s *Signature) GetSet(addr uint64, e Entry) Entry {
	c := s.Cell(addr)
	old := c.W
	c.W = e
	return old
}

// Remove clears the cells of the n addresses starting at addr (variable
// lifetime analysis): one span clear per block the range overlaps. Blocks
// that were never touched stay unmaterialised.
func (s *Signature) Remove(addr uint64, n int) {
	if n <= 0 {
		return
	}
	end := addr + uint64(n)
	if s.stride > 1 {
		addr, end = addr/s.stride, (end-1)/s.stride+1
	}
	for addr < end {
		next := min((addr|blockMask)+1, end)
		if b := s.blocks[s.index(addr)]; b != nil {
			clear(b[addr&blockMask : (next-1)&blockMask+1])
		}
		addr = next
	}
}

// MemBytes returns the memory footprint of the signature in bytes: the
// materialised blocks plus the block table.
func (s *Signature) MemBytes() int64 {
	return int64(s.live)*blockCells*cellBytes + int64(len(s.blocks))*8
}

// Shadow-memory geometry. Simulated addresses are dense element indices
// (globals, then the thread stacks, then a bump-allocated heap), so a page
// table indexed by addr>>pageShift stays a few thousand entries and only
// the pages a program touches exist.
const (
	pageShift = 11
	pageCells = 1 << pageShift // 96 KB of cells
	pageMask  = pageCells - 1

	// maxAddr bounds the page table (to 2 Mi entries, 16 MB): an address at
	// or beyond it — 32 GB into a simulated address space — is reported as
	// the event-emission bug it is instead of being allocated for.
	maxAddr = 1 << 32
)

type page [pageCells]Cell

// Perfect is the exact store, the "perfect signature" of Section 2.5.1 in
// which collisions cannot happen: shadow memory (Section 2.3.7) with one
// directly indexed Cell per address, in fixed-size pages that materialise
// on first touch. An empty store allocates nothing.
type Perfect struct {
	pages []*page // nil = never touched
	live  int     // materialised pages
}

// NewPerfect returns an empty perfect signature.
func NewPerfect() *Perfect { return &Perfect{} }

// MakePerfect returns an empty perfect signature by value, for embedding
// in generic engines.
func MakePerfect() Perfect { return Perfect{} }

// Cell returns the cell of addr, materialising its page on first touch.
func (p *Perfect) Cell(addr uint64) *Cell {
	if i := addr >> pageShift; i < uint64(len(p.pages)) {
		if pg := p.pages[i]; pg != nil {
			return &pg[addr&pageMask]
		}
	}
	return p.cellSlow(addr)
}

func (p *Perfect) cellSlow(addr uint64) *Cell {
	if addr >= maxAddr {
		panic(fmt.Sprintf("sig: address %#x is beyond the shadow memory's %#x-cell range", addr, uint64(maxAddr)))
	}
	i := int(addr >> pageShift)
	if i >= len(p.pages) {
		p.pages = append(p.pages, make([]*page, i+1-len(p.pages))...)
	}
	if p.pages[i] == nil {
		p.pages[i] = new(page)
		p.live++
	}
	return &p.pages[i][addr&pageMask]
}

// GetSet records e as the latest write status of addr and returns the
// previous one (a zero Entry if none).
func (p *Perfect) GetSet(addr uint64, e Entry) Entry {
	c := p.Cell(addr)
	old := c.W
	c.W = e
	return old
}

// Remove clears the n cells starting at addr (variable lifetime analysis):
// one span clear per page the range overlaps. Pages that were never touched
// stay unmaterialised.
func (p *Perfect) Remove(addr uint64, n int) {
	for end := addr + uint64(n); addr < end; {
		i := addr >> pageShift
		if i >= uint64(len(p.pages)) {
			return
		}
		next := min((i+1)<<pageShift, end)
		if pg := p.pages[i]; pg != nil {
			clear(pg[addr&pageMask : (next-1)&pageMask+1])
		}
		addr = next
	}
}

// MemBytes returns the memory footprint of the store in bytes: the
// materialised pages plus the page table.
func (p *Perfect) MemBytes() int64 {
	return int64(p.live)*pageCells*cellBytes + int64(len(p.pages))*8
}

// EstimateFPR returns the estimated probability that a given slot is
// occupied after inserting n distinct elements into a signature with m
// slots: 1 - (1 - 1/m)^n (Formula 2.2).
func EstimateFPR(m, n int) float64 {
	if m <= 0 {
		return 1
	}
	return 1 - math.Pow(1-1/float64(m), float64(n))
}
