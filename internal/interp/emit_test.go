package interp

import (
	"reflect"
	"testing"

	"discopop/internal/ir"
)

// seamModule is a program whose event count can be set to the event: a loop
// of iters iterations storing a[i] (a of elems elements, so iters > elems
// faults mid-run), then extra straight-line stores b[0], b[1], ... — one
// event each.
func seamModule(iters, elems, extra int) (m *ir.Module, a, b *ir.Var) {
	bd := ir.NewBuilder("seam")
	a = bd.GlobalArray("a", ir.F64, elems)
	b = bd.GlobalArray("b", ir.F64, max(extra, 1))
	fb := bd.Func("main")
	fb.For("i", ir.CI(0), ir.CI(int64(iters)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(a, ir.V(i), ir.CF(1))
	})
	for k := 0; k < extra; k++ {
		fb.SetAt(b, ir.CI(int64(k)), ir.CF(2))
	}
	return bd.Build(fb.Done()), a, b
}

// chunkLog keeps every delivered event (copied: the interpreter reuses the
// chunk) and the length of every chunk.
type chunkLog struct {
	evs    []Ev
	chunks []int
}

func (c *chunkLog) ProcessBatch(_ *ir.Module, evs []Ev) {
	c.evs = append(c.evs, evs...)
	c.chunks = append(c.chunks, len(evs))
}

// storesTo lists, in stream order, the element indices of the stores to the
// global v (globals lie from address 1 on, in declaration order).
func (c *chunkLog) storesTo(m *ir.Module, v *ir.Var) []int {
	base := uint64(1)
	for _, g := range m.Vars[:v.ID] {
		if g.Kind == ir.KGlobal {
			base += uint64(g.Elems)
		}
	}
	var idx []int
	for i := range c.evs {
		if ev := &c.evs[i]; ev.Kind() == EvStore && ev.B == int32(v.ID) {
			idx = append(idx, int(ev.Addr-base))
		}
	}
	return idx
}

func upTo(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// checkChunking: every chunk but the last is exactly evBatchSize events, the
// last is what is left and never empty.
func checkChunking(t *testing.T, what string, c *chunkLog) {
	t.Helper()
	total := len(c.evs)
	if want := (total + evBatchSize - 1) / evBatchSize; len(c.chunks) != want {
		t.Fatalf("%s: %d events in %d chunks %v, want %d", what, total, len(c.chunks), c.chunks, want)
	}
	for i, n := range c.chunks {
		if want := min(evBatchSize, total-i*evBatchSize); n != want {
			t.Fatalf("%s: chunk %d of %d holds %d events, want %d", what, i, len(c.chunks), n, want)
		}
	}
}

var seamEngines = []struct {
	name string
	opts []Option
}{{"vm", nil}, {"treewalk", []Option{WithTreeWalk()}}}

// TestEmitChunkBoundaries: a run that ends one event before a chunk boundary,
// on it, and one past it delivers every event once and in order, in full
// chunks and one partial one (none when the run ends on the boundary), on
// both engines — the places an in-place write into a recycled buffer and its
// flush could lose or repeat a record.
func TestEmitChunkBoundaries(t *testing.T) {
	const iters = 300
	count := func(extra int) int {
		m, _, _ := seamModule(iters, iters, extra)
		c := &chunkLog{}
		New(m, c).Run()
		return len(c.evs)
	}
	base := count(0)
	if count(7) != base+7 {
		t.Fatalf("an extra store is not one event: %d events without, %d with 7", base, count(7))
	}
	for k := 1; k <= 2; k++ {
		for _, target := range []int{k*evBatchSize - 1, k * evBatchSize, k*evBatchSize + 1} {
			extra := target - base
			if extra < 0 {
				t.Fatalf("the loop alone emits %d events, more than the target %d", base, target)
			}
			var ref *chunkLog
			for _, eng := range seamEngines {
				m, a, b := seamModule(iters, iters, extra)
				c := &chunkLog{}
				New(m, c, eng.opts...).Run()
				if len(c.evs) != target {
					t.Fatalf("%s: %d events delivered, the program emits %d", eng.name, len(c.evs), target)
				}
				checkChunking(t, eng.name, c)
				if got := c.storesTo(m, a); !reflect.DeepEqual(got, upTo(iters)) {
					t.Fatalf("%s, %d events: the loop's stores arrived as %v", eng.name, target, got)
				}
				if got := c.storesTo(m, b); !reflect.DeepEqual(got, upTo(extra)) {
					t.Fatalf("%s, %d events: the %d straight-line stores arrived as %v", eng.name, target, extra, got)
				}
				if ref == nil {
					ref = c
				} else if !reflect.DeepEqual(c.evs, ref.evs) {
					t.Fatalf("%s, %d events: stream differs from %s's", eng.name, target, seamEngines[0].name)
				}
			}
		}
	}
}

// TestEmitFlushesBeforeMidChunkFault: a runtime error raised with full chunks
// behind it and a partial one in the buffer still delivers every event that
// preceded it — the stores a[0..elems) and nothing of the faulting one — on
// both engines alike.
func TestEmitFlushesBeforeMidChunkFault(t *testing.T) {
	const elems = 1000
	var ref *chunkLog
	for _, eng := range seamEngines {
		m, a, _ := seamModule(2*elems, elems, 0)
		c := &chunkLog{}
		if msg := runToPanic(m, c, eng.opts...); msg == "" {
			t.Fatalf("%s: storing past the end of the array did not panic", eng.name)
		}
		checkChunking(t, eng.name, c)
		if len(c.chunks) < 2 || len(c.evs)%evBatchSize == 0 {
			t.Fatalf("%s: chunks %v: the fault was not mid-chunk with a full chunk behind it", eng.name, c.chunks)
		}
		if got := c.storesTo(m, a); !reflect.DeepEqual(got, upTo(elems)) {
			t.Fatalf("%s: %d stores delivered before the fault, want a[0..%d) in order", eng.name, len(got), elems)
		}
		if ref == nil {
			ref = c
		} else if !reflect.DeepEqual(c.evs, ref.evs) || !reflect.DeepEqual(c.chunks, ref.chunks) {
			t.Fatalf("%s: stream before the fault differs from %s's", eng.name, seamEngines[0].name)
		}
	}
}
