package interp

import "discopop/internal/mem"

// Option configures an interpreter at construction.
type Option func(*config)

type config struct {
	pool      *mem.Pool
	maxInstrs int64
	treeWalk  bool
}

// WithPool draws the address space from an arena pool and arranges for
// Release to return it. Callers that neither call Release nor keep the
// interpreter alive simply fall back to GC — pooling is an optimization,
// never an obligation.
func WithPool(p *mem.Pool) Option {
	return func(c *config) { c.pool = p }
}

// WithMaxInstrs aborts the run (as a runtime error, recovered like any
// interpreter panic) once more than n leaf statements have executed.
// Zero means unbounded. The check sits on loop back-edges and function
// entries — the only places an execution can grow without bound — so it
// costs nothing on straight-line code. Both engines count leaf statements
// identically, so the budget fires at the same point regardless of engine.
func WithMaxInstrs(n int64) Option {
	return func(c *config) { c.maxInstrs = n }
}

// WithTreeWalk selects the reference tree-walking engine instead of the
// bytecode VM. The engines are observationally identical (same events,
// same counters, same panics — enforced by the differential test suite);
// the walker remains as the executable specification and a debugging aid.
func WithTreeWalk() Option {
	return func(c *config) { c.treeWalk = true }
}
