package interp

import (
	"testing"

	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/workloads"
)

// addrRange checks every address the interpreter hands a tracer against the
// address space it came from, at flush time, when the heap bound can only
// have grown since the event was emitted. ProcessBatch calls of a
// multi-threaded target run on the simulated threads' goroutines (one at a
// time), so violations are reported with Errorf, the first one only.
type addrRange struct {
	t     *testing.T
	space *mem.Space
	seen  int64
	bad   bool
}

func (c *addrRange) check(what string, addr uint64, elems int) {
	c.seen++
	if (addr == 0 || addr+uint64(elems) > c.space.Bound()) && !c.bad {
		c.bad = true
		c.t.Errorf("%s event carries [%d, %d) outside the address space [1, %d)",
			what, addr, addr+uint64(elems), c.space.Bound())
	}
}

func (c *addrRange) ProcessBatch(m *ir.Module, evs []Ev) {
	for i := range evs {
		switch ev := &evs[i]; ev.Kind() {
		case EvLoad:
			c.check("load", ev.Addr, 1)
		case EvStore:
			c.check("store", ev.Addr, 1)
		case EvFreeVar:
			c.check("free", ev.Addr, int(ev.B))
		}
	}
}

// TestAccessEventsStayInsideTheSpace: over the full workload registry, on
// the VM and on the tree walker, no load, store or
// variable-death event carries address 0 or an address at or beyond
// Space.Bound(). sig.Perfect indexes its page table with these addresses
// unchecked; this is the invariant that makes that legal.
func TestAccessEventsStayInsideTheSpace(t *testing.T) {
	for _, name := range workloads.Names("") {
		for _, opts := range [][]Option{nil, {WithTreeWalk()}} {
			m := workloads.MustBuild(name, 1).M
			c := &addrRange{t: t}
			it := New(m, c, opts...)
			c.space = it.Space()
			it.Run()
			if c.seen == 0 {
				t.Errorf("%s: no access events observed", name)
			}
		}
	}
}
