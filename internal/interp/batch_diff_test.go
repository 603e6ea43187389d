package interp

import (
	"fmt"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// oneByOne re-chunks a stream into one-event chunks.
type oneByOne struct{ Tracer }

func (o oneByOne) ProcessBatch(m *ir.Module, evs []Ev) {
	for i := range evs {
		o.Tracer.ProcessBatch(m, evs[i:i+1])
	}
}

// checkEv reports what is malformed about one record taken alone, "" if
// nothing: consumers index the module's tables with A and B unchecked and
// take Sink verbatim, so every index must be in range and Sink must be the
// packing of the exact fields beside it.
func checkEv(m *ir.Module, ev *Ev) string {
	inRange := func(i int32, n int) bool { return i >= 0 && int(i) < n }
	if ev.Kind() > EvStore && ev.Sink>>16 != 0 {
		return "control event with Sink bits above kind and thread"
	}
	switch ev.Kind() {
	case EvLoad, EvStore:
		if !inRange(ev.B, len(m.Vars)) {
			return "access of a variable outside the module"
		}
		if want := sinkOf(ev.Loc, m.Vars[ev.B], ev.Tid()) | uint64(ev.Kind()); ev.Sink != want {
			return fmt.Sprintf("Sink %#x is not the packing %#x of Loc, B and thread", ev.Sink, want)
		}
	case EvEnterRegion, EvExitRegion, EvLoopIter:
		if !inRange(ev.A, len(m.Regions)) {
			return "region outside the module"
		}
	case EvEnterFunc, EvExitFunc:
		if !inRange(ev.A, len(m.Funcs)) {
			return "function outside the module"
		}
	case EvBindVar, EvFreeVar:
		if !inRange(ev.A, len(m.Vars)) {
			return "variable outside the module"
		}
	case EvLock, EvUnlock, EvThreadStart, EvThreadEnd:
	default:
		return "unknown kind"
	}
	return ""
}

// TestBatchedReplayMatchesPerEvent (the name dates from the per-event Tracer
// API): for every bundled workload and both engines, the chunked stream
// re-delivered one event per chunk through a MultiTracer is the stream a sole
// tracer receives — fan-out and chunk boundaries change nothing — and every
// record, taken alone, is well-formed against the module (checkEv). The
// walker ≡ VM hash proves the two engines agree; this proves what they agree
// on is what the consumers assume.
func TestBatchedReplayMatchesPerEvent(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := workloads.MustBuild(name, 1).M
			for _, opts := range [][]Option{nil, {WithTreeWalk()}} {
				sole := runEngine(m, opts...)
				whole, single := &traceHasher{sum: fnvOffset}, &traceHasher{sum: fnvOffset}
				bad := ""
				check := evFunc(func(m *ir.Module, ev *Ev) {
					if msg := checkEv(m, ev); msg != "" && bad == "" {
						bad = fmt.Sprintf("%s: %+v", msg, *ev)
					}
				})
				New(m, &MultiTracer{Tracers: []Tracer{whole, oneByOne{single}, check}}, opts...).Run()
				if whole.sum != sole.sum || single.sum != sole.sum || single.events != sole.events {
					t.Errorf("treewalk=%v: stream diverged: sole %016x (%d events), fanned out %016x, one by one %016x (%d events)",
						opts != nil, sole.sum, sole.events, whole.sum, single.sum, single.events)
				}
				if bad != "" {
					t.Errorf("treewalk=%v: malformed record: %s", opts != nil, bad)
				}
			}
		})
	}
}

// oobModule builds a module whose 7th store lands outside the bound of a
// 4-element global array.
func oobModule() *ir.Module {
	b := ir.NewBuilder("oob")
	arr := b.GlobalArray("arr", ir.F64, 4)
	fb := b.Func("main")
	fb.For("i", ir.CI(0), ir.CI(10), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.CF(1))
	})
	return b.Build(fb.Done())
}

// boundsTracer records every delivered access address, on top of the
// hasher's event accounting.
type boundsTracer struct {
	traceHasher
	maxAddr  uint64
	accesses int
}

func (bt *boundsTracer) ProcessBatch(m *ir.Module, evs []Ev) {
	for i := range evs {
		if ev := &evs[i]; ev.Kind() <= EvStore {
			bt.accesses++
			bt.maxAddr = max(bt.maxAddr, ev.Addr)
		}
	}
	bt.traceHasher.ProcessBatch(m, evs)
}

// runToPanic drives a traced run to completion or panic, returning the
// panic message ("" if none).
func runToPanic(m *ir.Module, tr Tracer, opts ...Option) (msg string) {
	it := New(m, tr, opts...)
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	it.Run()
	return
}

// TestFaultingAccessEmitsNoEvent: an out-of-range access panics on both
// engines *without* feeding the bogus address to the tracer, and with the
// pre-fault prefix of the trace delivered identically (the event buffer is
// flushed before the panic propagates). The bounds check preceding event
// emission is a PR 8 fix: the VM's fast paths briefly emitted the event
// before the bound test, poisoning the dependence table of any consumer that
// recovers.
func TestFaultingAccessEmitsNoEvent(t *testing.T) {
	type outcome struct {
		msg      string
		sum      uint64
		events   int64
		accesses int
	}
	var ref outcome
	for i, v := range []struct {
		name string
		opts []Option
	}{{"treewalk", []Option{WithTreeWalk()}}, {"vm", nil}} {
		m := oobModule()
		bound := New(m, nil).Space().Bound()
		bt := &boundsTracer{traceHasher: traceHasher{sum: fnvOffset}}
		msg := runToPanic(m, bt, v.opts...)
		if msg == "" {
			t.Fatalf("%s: out-of-range store did not panic", v.name)
		}
		if bt.accesses == 0 {
			t.Errorf("%s: the accesses before the fault were not delivered", v.name)
		}
		if bt.maxAddr >= bound {
			t.Errorf("%s: faulting address %d (bound %d) was delivered to the tracer",
				v.name, bt.maxAddr, bound)
		}
		got := outcome{msg, bt.sum, bt.events, bt.accesses}
		if i == 0 {
			ref = got
		} else if got != ref {
			t.Errorf("%s diverged from treewalk across the fault:\n  %+v\n  %+v", v.name, got, ref)
		}
	}
}
