package profiler

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"discopop/internal/bytecode"
	"discopop/internal/ir"
)

// randomDep draws a dependence within the packed field widths: 10-bit
// file (>= 1), 22-bit line, 16-bit variable, 8-bit thread, 22-bit carrying
// region. Threads are either both set or both -1, mirroring how the engine
// builds them (MT vs. sequential profiling).
func randomDep(rng *rand.Rand) Dep {
	t := DepType(rng.Intn(4))
	d := Dep{
		Sink:    ir.Loc{File: int32(rng.Intn(1<<10-1) + 1), Line: int32(rng.Intn(1 << 22))},
		Type:    t,
		Var:     -1,
		SinkThr: -1, SrcThr: -1,
		CarriedBy: -1,
	}
	if t == INIT {
		return d
	}
	d.Source = ir.Loc{File: int32(rng.Intn(1<<10-1) + 1), Line: int32(rng.Intn(1 << 22))}
	d.Var = int32(rng.Intn(1 << 16))
	if rng.Intn(2) == 0 {
		d.SinkThr = int16(rng.Intn(1 << 8))
		d.SrcThr = int16(rng.Intn(1 << 8))
	}
	if rng.Intn(2) == 0 {
		d.Carried = true
		d.CarriedBy = int32(rng.Intn(1<<22 - 1))
	}
	d.Reversed = rng.Intn(2) == 0
	return d
}

// TestDepKeyRoundTrip: packDep/unpackDep must be exact inverses across the
// full packed field widths, including the boundary values of each field.
func TestDepKeyRoundTrip(t *testing.T) {
	boundary := []Dep{
		// Minimal non-INIT dependence.
		{Sink: ir.Loc{File: 1, Line: 0}, Type: RAW, Var: 0,
			SinkThr: -1, SrcThr: -1, CarriedBy: -1},
		// Field-width maxima: 10-bit file, 22-bit line, 16-bit var, 8-bit
		// threads, 22-bit carrying region (stored as region+1).
		{Sink: ir.Loc{File: 1<<10 - 1, Line: 1<<22 - 1}, Type: WAW,
			Source: ir.Loc{File: 1<<10 - 1, Line: 1<<22 - 1},
			Var:    1<<16 - 1, SinkThr: 1<<8 - 1, SrcThr: 1<<8 - 1,
			Carried: true, CarriedBy: 1<<22 - 2, Reversed: true},
		// Carried by region 0 (the +1 bias must not collide with "not
		// carried").
		{Sink: ir.Loc{File: 2, Line: 7}, Type: WAR,
			Source: ir.Loc{File: 2, Line: 9}, Var: 3,
			SinkThr: -1, SrcThr: -1, Carried: true, CarriedBy: 0},
		// Thread 0 on both sides (must round-trip distinct from -1).
		{Sink: ir.Loc{File: 3, Line: 1}, Type: RAW,
			Source: ir.Loc{File: 3, Line: 2}, Var: 0,
			SinkThr: 0, SrcThr: 0, CarriedBy: -1},
		// INIT: sink only, every other attribute at its default.
		{Sink: ir.Loc{File: 1<<10 - 1, Line: 1<<22 - 1}, Type: INIT, Var: -1,
			SinkThr: -1, SrcThr: -1, CarriedBy: -1},
	}
	for _, d := range boundary {
		hi, lo := packDep(d)
		if hi == 0 {
			t.Errorf("packDep(%+v): hi = 0, the empty-cell sentinel", d)
		}
		if got := unpackDep(hi, lo); got != d {
			t.Errorf("round trip changed dependence:\n got %+v\nwant %+v", got, d)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		d := randomDep(rng)
		hi, lo := packDep(d)
		if got := unpackDep(hi, lo); got != d {
			t.Fatalf("round trip changed dependence:\n got %+v\nwant %+v", got, d)
		}
	}
}

// TestDepTableMatchesMapReference drives the packed accumulator and a
// plain map with the same dependence stream across growth boundaries.
func TestDepTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A pool with repeats so counts accumulate.
	pool := make([]Dep, 300)
	for i := range pool {
		pool[i] = randomDep(rng)
	}
	tab := newDepTable()
	ref := map[Dep]int64{}
	for i := 0; i < 50000; i++ {
		d := pool[rng.Intn(len(pool))]
		hi, lo := packDep(d)
		n := int64(rng.Intn(3) + 1)
		tab.add(hi, lo, n)
		ref[d] += n
	}
	if got := mergeDepTables([]*depTable{&tab}); !reflect.DeepEqual(got, ref) {
		t.Fatalf("materialized table diverges from map reference: %d vs %d entries",
			len(got), len(ref))
	}
}

// TestMergeDepTablesShardedMatchesSerial checks the one merge (the
// paper's final merge of every engine's table) against a reference summed
// by hand in a plain map.
func TestMergeDepTablesShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := make([]Dep, 1<<12)
	for i := range pool {
		pool[i] = randomDep(rng)
	}
	nEngines := 4
	tables := make([]*depTable, nEngines)
	want := map[Dep]int64{}
	for e := 0; e < nEngines; e++ {
		tab := newDepTable()
		tables[e] = &tab
		for i := 0; i < 3*len(pool); i++ {
			d := pool[rng.Intn(len(pool))]
			hi, lo := packDep(d)
			tab.add(hi, lo, 1)
			want[d]++
		}
	}
	if got := mergeDepTables(tables); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge diverges from reference: %d vs %d entries",
			len(got), len(want))
	}
}

// TestDepShardsConcurrentMerge streams many dependence maps into the
// sharded fleet accumulator from concurrent goroutines (the batch-engine
// pattern) and checks the combined snapshot.
func TestDepShardsConcurrentMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const producers = 8
	jobs := make([]map[Dep]int64, producers)
	want := map[Dep]int64{}
	for p := range jobs {
		jobs[p] = map[Dep]int64{}
		for i := 0; i < 500; i++ {
			d := randomDep(rng)
			jobs[p][d] += int64(i%5 + 1)
		}
		for d, n := range jobs[p] {
			want[d] += n
		}
	}
	shards := NewDepShards(0)
	var wg sync.WaitGroup
	for p := range jobs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			shards.Merge(jobs[p])
		}(p)
	}
	wg.Wait()
	if got := shards.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent sharded merge diverges: %d vs %d entries", len(got), len(want))
	}
	if shards.Distinct() != len(want) {
		t.Fatalf("Distinct = %d, want %d", shards.Distinct(), len(want))
	}
}

// TestPackInfoWidths pins the access-info packing: 10-bit file, 22-bit
// line, 16-bit variable, 8-bit thread, and the non-zero guarantee the
// empty-entry sentinel relies on.
func TestPackInfoWidths(t *testing.T) {
	loc := ir.Loc{File: 1<<10 - 1, Line: 1<<22 - 1}
	info := bytecode.PackSink(loc, 1<<16-1) | bytecode.SinkThread(1<<8-1)
	if got := unpackLoc(info); got != loc {
		t.Errorf("unpackLoc = %+v, want %+v", got, loc)
	}
	if got := unpackVar(info); got != 1<<16-1 {
		t.Errorf("unpackVar = %d, want %d", got, 1<<16-1)
	}
	if got := unpackThread(info); got != 1<<8-1 {
		t.Errorf("unpackThread = %d, want %d", got, 1<<8-1)
	}
	if bytecode.PackSink(ir.Loc{File: 1}, 0)|bytecode.SinkThread(0) == 0 {
		t.Error("a packed sink with file=1 must be non-zero (empty-entry sentinel)")
	}
}

// TestDepShardsZeroLocationDep: a dependence whose packed sink/source is
// all zero (never produced by the profiler, but accepted by the public
// Merge) must survive Snapshot and be counted consistently.
func TestDepShardsZeroLocationDep(t *testing.T) {
	s := NewDepShards(2)
	d := Dep{Type: INIT, Var: -1, SinkThr: -1, SrcThr: -1, CarriedBy: -1}
	s.Merge(map[Dep]int64{d: 5})
	if s.Distinct() != 1 {
		t.Fatalf("Distinct = %d, want 1", s.Distinct())
	}
	snap := s.Snapshot()
	if snap[d] != 5 {
		t.Fatalf("Snapshot[%+v] = %d, want 5", d, snap[d])
	}
}
