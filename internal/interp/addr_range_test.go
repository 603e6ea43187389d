package interp

import (
	"testing"

	"discopop/internal/ir"
	"discopop/internal/mem"
	"discopop/internal/workloads"
)

// addrRange checks every address the interpreter hands a tracer against the
// address space it came from. The batched path checks at flush time, when
// the heap bound can only have grown since the event was emitted. Tracer
// callbacks of a multi-threaded target run on the simulated threads'
// goroutines (one at a time), so violations are reported with Errorf, the
// first one only.
type addrRange struct {
	BaseTracer
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

func (c *addrRange) Load(a Access)  { c.check("load", a.Addr, 1) }
func (c *addrRange) Store(a Access) { c.check("store", a.Addr, 1) }
func (c *addrRange) FreeVar(v *ir.Var, base uint64, elems int, tid int32) {
	c.check("free", base, elems)
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
// the batched VM and on the per-event tree walker, no load, store or
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
