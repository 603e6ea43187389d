package interp

import "discopop/internal/ir"

// MultiTracer fans one event stream out to several tracers, so that the
// profiler, the PET builder and any other observer watch the same execution.
// It lives next to the Tracer interface because stage wiring
// (internal/pipeline) composes tracers before the interpreter runs.
type MultiTracer struct {
	Tracers []Tracer
}

// ProcessBatch implements Tracer.
func (m *MultiTracer) ProcessBatch(mod *ir.Module, evs []Ev) {
	for _, t := range m.Tracers {
		t.ProcessBatch(mod, evs)
	}
}
