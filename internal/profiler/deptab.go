package profiler

import (
	"sync"

	"discopop/internal/ir"
)

// The dependence accumulator of the hot path. The paper's Algorithm 2
// touches the dependence storage once per dependence-building access; in the
// seed implementation that touch was a Go map insert keyed by the full
// multi-word Dep struct (reflection-driven hashing and equality on every
// insert). Here a dependence's identity is packed into 128 bits — sink and
// source location, type, variable, threads, carrying loop, reversal flag —
// and accumulated in an open-addressing table (linear probing, insert-only),
// so the per-dependence cost is one integer hash and a linear probe. Result
// materializes the packed tables back into the public map[Dep]int64, so
// discovery, ranking, and the dep-file writer are unchanged.

// Packed dependence identity, two words:
//
//	hi: sinkFile(10) sinkLine(22) srcFile(10) srcLine(22)
//	lo: type(2) var(16) sinkThr(8) srcThr(8) carried(1) reversed(1)
//	    hasThr(1) unused(5) carriedBy+1(22)
//
// The location fields reuse bytecode.PackSink's widths (file 10 bits, line 22 bits,
// variable 16 bits, thread 8 bits), so packing a dependence loses nothing
// the access records had not already lost. The sink file is always >= 1, so
// hi is non-zero for every real dependence and a zero hi marks an empty
// table cell.
const (
	depTypeShift    = 62
	depVarShift     = 46
	depSinkThrShift = 38
	depSrcThrShift  = 30
	depCarriedBit   = uint64(1) << 29
	depReversedBit  = uint64(1) << 28
	depHasThrBit    = uint64(1) << 27
	depCarryMask    = uint64(1)<<22 - 1
)

// locBits packs a location into the 32-bit file(10)|line(22) form — the
// same form bytecode.PackSink's upper half uses, so engine code can derive it from
// an access record with a single shift.
func locBits(l ir.Loc) uint64 {
	return uint64(uint32(l.File)&0x3FF)<<22 | uint64(uint32(l.Line)&0x3FFFFF)
}

func locFromBits(b uint64) ir.Loc {
	return ir.Loc{File: int32(b >> 22 & 0x3FF), Line: int32(b & 0x3FFFFF)}
}

// packDep packs a dependence into its 128-bit identity. Fields beyond the
// packed widths are truncated exactly as bytecode.PackSink truncates them on the
// access path.
func packDep(d Dep) (hi, lo uint64) {
	hi = locBits(d.Sink) << 32
	lo = uint64(d.Type) << depTypeShift
	if d.Type == INIT {
		return hi, lo
	}
	hi |= locBits(d.Source)
	lo |= (uint64(uint32(d.Var)) & 0xFFFF) << depVarShift
	if d.SinkThr >= 0 || d.SrcThr >= 0 {
		lo |= depHasThrBit |
			uint64(uint8(d.SinkThr))<<depSinkThrShift |
			uint64(uint8(d.SrcThr))<<depSrcThrShift
	}
	if d.Carried {
		lo |= depCarriedBit | uint64(uint32(d.CarriedBy+1))&depCarryMask
	}
	if d.Reversed {
		lo |= depReversedBit
	}
	return hi, lo
}

// unpackDep is the inverse of packDep, reconstructing the canonical Dep the
// seed implementation would have built per access.
func unpackDep(hi, lo uint64) Dep {
	d := Dep{
		Sink:    locFromBits(hi >> 32),
		Type:    DepType(lo >> depTypeShift),
		Var:     -1,
		SinkThr: -1, SrcThr: -1,
		CarriedBy: -1,
	}
	if d.Type == INIT {
		return d
	}
	d.Source = locFromBits(hi & 0xFFFFFFFF)
	d.Var = int32(lo >> depVarShift & 0xFFFF)
	if lo&depHasThrBit != 0 {
		d.SinkThr = int16(lo >> depSinkThrShift & 0xFF)
		d.SrcThr = int16(lo >> depSrcThrShift & 0xFF)
	}
	if lo&depCarriedBit != 0 {
		d.Carried = true
		d.CarriedBy = int32(lo&depCarryMask) - 1
	}
	d.Reversed = lo&depReversedBit != 0
	return d
}

// depHash mixes the two key words (the multiplicative mixer sig.Signature
// hashes addresses with, over two words).
func depHash(hi, lo uint64) uint64 {
	h := (hi ^ lo*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	return h ^ h>>29
}

// depCell is one table slot: key pair plus the merged occurrence count.
type depCell struct {
	hi, lo uint64
	n      int64
}

// depTable is the open-addressing accumulator: linear probing, grow at 3/4
// load. It is single-writer (one per engine, one per DepShards shard).
type depTable struct {
	cells []depCell
	n     int
	// last is the cell index of the most recent add, kept per dependence
	// type. An access repeated across loop iterations rebuilds the identical
	// dependence — but a load/store pair alternates RAW with WAR/WAW, so one
	// shared slot would thrash; per-type slots make the steady-state cost a
	// single compare instead of hash+probe. Index 0 is a safe initial/reset
	// value: if cell 0 is empty its hi is 0, which never equals a real key.
	last [4]uint64
}

const depTableInitCap = 1 << 8

func newDepTable() depTable {
	return depTable{cells: make([]depCell, depTableInitCap)}
}

// add merges n occurrences of the packed dependence (hi, lo).
func (t *depTable) add(hi, lo uint64, n int64) {
	ty := lo >> depTypeShift
	if c := &t.cells[t.last[ty]]; c.hi == hi && c.lo == lo {
		c.n += n
		return
	}
	if t.n*4 >= len(t.cells)*3 {
		t.grow()
	}
	mask := uint64(len(t.cells) - 1)
	for i := depHash(hi, lo) & mask; ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.hi == hi && c.lo == lo {
			c.n += n
			t.last[ty] = i
			return
		}
		if c.hi == 0 {
			c.hi, c.lo, c.n = hi, lo, n
			t.n++
			t.last[ty] = i
			return
		}
	}
}

func (t *depTable) grow() {
	old := t.cells
	t.cells = make([]depCell, len(old)*2)
	t.n = 0
	t.last = [4]uint64{}
	for _, c := range old {
		if c.hi != 0 {
			t.add(c.hi, c.lo, c.n)
		}
	}
}

// each visits every occupied cell.
func (t *depTable) each(fn func(hi, lo uint64, n int64)) {
	for i := range t.cells {
		if c := &t.cells[i]; c.hi != 0 {
			fn(c.hi, c.lo, c.n)
		}
	}
}

// depShardOf maps a packed dependence to its DepShards shard by sink location
// (hi's upper half), so all variants of one sink line land in one shard.
func depShardOf(hi uint64, nshards int) int {
	h := (hi >> 32) * 0x9E3779B97F4A7C15
	return int(h >> 33 % uint64(nshards))
}

// mergeDepTables merges the per-engine dependence tables into one map: the
// paper's final merge of every thread-local map into the global one, run
// once, serially, at the end of a run.
func mergeDepTables(tables []*depTable) map[Dep]int64 {
	total := 0
	for _, t := range tables {
		total += t.n
	}
	out := make(map[Dep]int64, total)
	for _, t := range tables {
		t.each(func(hi, lo uint64, n int64) {
			out[unpackDep(hi, lo)] += n
		})
	}
	return out
}

// DepShards is a concurrency-safe dependence accumulator sharded by sink
// location: concurrent producers (e.g. batch-engine workers folding
// finished jobs into fleet-level statistics) lock only the shard their
// dependence hashes to, so merges stream instead of serializing on one
// map. The zero value is not usable; construct with NewDepShards.
type DepShards struct {
	shards []depShard

	// zero catches dependences whose packed key would collide with the
	// empty-cell sentinel (sink location all zero — never produced by the
	// profiler, but Merge accepts arbitrary maps).
	zeroMu sync.Mutex
	zero   map[Dep]int64
}

type depShard struct {
	mu  sync.Mutex
	tab depTable
	// pad keeps neighboring shards off one cache line under contention.
	_ [24]byte
}

// NewDepShards returns an accumulator with n shards (a small power of two
// is picked when n <= 0).
func NewDepShards(n int) *DepShards {
	if n <= 0 {
		n = 16
	}
	s := &DepShards{shards: make([]depShard, n)}
	for i := range s.shards {
		s.shards[i].tab = newDepTable()
	}
	return s
}

// Merge folds one result's dependence map into the accumulator.
func (s *DepShards) Merge(deps map[Dep]int64) {
	for d, n := range deps {
		hi, lo := packDep(d)
		if hi == 0 {
			s.zeroMu.Lock()
			if s.zero == nil {
				s.zero = map[Dep]int64{}
			}
			s.zero[d] += n
			s.zeroMu.Unlock()
			continue
		}
		sh := &s.shards[depShardOf(hi, len(s.shards))]
		sh.mu.Lock()
		sh.tab.add(hi, lo, n)
		sh.mu.Unlock()
	}
}

// Distinct returns the number of distinct dependences accumulated.
func (s *DepShards) Distinct() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.tab.n
		sh.mu.Unlock()
	}
	s.zeroMu.Lock()
	total += len(s.zero)
	s.zeroMu.Unlock()
	return total
}

// Snapshot materializes the accumulated dependences into one map.
func (s *DepShards) Snapshot() map[Dep]int64 {
	out := make(map[Dep]int64, s.Distinct())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.tab.each(func(hi, lo uint64, n int64) {
			out[unpackDep(hi, lo)] += n
		})
		sh.mu.Unlock()
	}
	s.zeroMu.Lock()
	for d, n := range s.zero {
		out[d] += n
	}
	s.zeroMu.Unlock()
	return out
}
