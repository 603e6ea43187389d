package profiler

import (
	"testing"

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

// serialPipe lets a Profiler drive a serial engine of a store type it has
// no field for.
type serialPipe struct {
	eng *engine[mapStore, *mapStore]
}

func (sp serialPipe) produce(r rec)         { sp.eng.process(&r) }
func (sp serialPipe) produceBatch(rs []rec) { sp.eng.processBatch(rs) }
func (sp serialPipe) finish() []engineDump  { return []engineDump{sp.eng.dump()} }
func (sp serialPipe) rebalanceCount() int   { return 0 }

// profileOnMap is Profile with every engine over a mapStore.
func profileOnMap(name string, opt Options) *Result {
	p := newProfiler(workloads.MustBuild(name, 1).M, opt)
	if eng := attach[mapStore](p, newMapStore); eng != nil {
		p.par = serialPipe{eng}
	}
	return p.run()
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
		{"workers2", Options{Workers: 2, ChunkSize: 64, RebalanceInterval: 25}},
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
