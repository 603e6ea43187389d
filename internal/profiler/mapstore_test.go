package profiler

import (
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/sig"
	"discopop/internal/workloads"
)

// mapStore is the exact store as a plain map: the oracle sig.Perfect's
// shadow memory is held to, now that no second exact store exists.
type mapStore struct {
	cells map[uint64]*sig.Cell
}

func newMapStore(int) mapStore { return mapStore{cells: map[uint64]*sig.Cell{}} }

func (s *mapStore) Cell(addr uint64) *sig.Cell {
	c := s.cells[addr]
	if c == nil {
		c = new(sig.Cell)
		s.cells[addr] = c
	}
	return c
}

func (s *mapStore) Remove(addr uint64, n int) {
	for end := addr + uint64(n); addr < end; addr++ {
		delete(s.cells, addr)
	}
}

func (s *mapStore) MemBytes() int64 { return 0 }

// serialTracer drives one serial engine over store type S from a profiler's
// event stream — a store type Profiler has no field for, or a serial engine
// where the options would select the pipeline (with Options.MT it records
// thread IDs: the reference the multi-threaded-target pipeline is held to).
type serialTracer[S any, PS storeOps[S]] struct {
	*Profiler
	eng *engine[S, PS]
}

func (s serialTracer[S, PS]) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	batchSerial(s.Profiler, s.eng, m, evs)
}

// profileSerial profiles m on one serial engine over st.
func profileSerial[S any, PS storeOps[S]](m *ir.Module, opt Options, st S) *Result {
	p := newProfiler(m, opt)
	eng := newEngine[S, PS](p, st)
	in := interp.New(m, serialTracer[S, PS]{p, eng}, interp.WithPool(mem.Default))
	defer in.Release()
	in.Run()
	p.dumps, p.stopped = []engineDump{eng.dump()}, true
	return p.Result()
}

// profileOnMap is Profile with every engine over a mapStore.
func profileOnMap(name string, opt Options) *Result {
	m := workloads.MustBuild(name, 1).M
	if !opt.MT && opt.Workers == 0 {
		return profileSerial[mapStore](m, opt, newMapStore(1))
	}
	p := newProfiler(m, opt)
	attach[mapStore](p, newMapStore)
	return p.execute(0, nil).Result
}

// TestShadowMemoryMatchesMapStore: over the full workload registry, the
// engine over sig.Perfect and the engine over a map produce byte-identical
// canonical dependence tables — serially, with and without loop skipping,
// under the worker pipeline, and under the multi-threaded-target pipeline.
// Direct indexing, page materialisation and range removal are invisible.
func TestShadowMemoryMatchesMapStore(t *testing.T) {
	modes := []struct {
		name string
		opt  Options
	}{
		{"serial", Options{}},
		{"skip", Options{Skip: true}},
		{"workers2", Options{Workers: 2, ChunkSize: 64, rebalanceInterval: 25}},
		{"mt", Options{MT: true, Workers: 2}},
	}
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range modes {
				shadow := canonDeps(Profile(workloads.MustBuild(name, 1).M, mode.opt))
				oracle := canonDeps(profileOnMap(name, mode.opt))
				if shadow != oracle {
					t.Errorf("%s: dependence tables diverged between stores\nsig.Perfect:\n%s\n\nmap:\n%s",
						mode.name, clip(shadow), clip(oracle))
				}
			}
		})
	}
}
