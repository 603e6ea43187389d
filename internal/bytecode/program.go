package bytecode

import "sync"

// Program is a compiled module: one flat instruction stream shared by every
// function, plus per-function metadata. A Program holds no pointers into
// the module it was compiled from — every reference is a table index or a
// layout-derived address — so it is valid for any content-identical module
// instance (the property the content-hash cache relies on).
type Program struct {
	// Code is the module-wide instruction stream; functions occupy
	// disjoint windows starting at their Entry.
	Code []Instr
	// Funcs is indexed by Func.ID.
	Funcs []FuncInfo
	// GlobalsEnd is the first address after the last global under the
	// compiler's layout; the interpreter cross-checks it against its own
	// before running the program.
	GlobalsEnd uint64
	// Fused counts instructions eliminated by superinstruction fusion.
	Fused int

	// Lazily built packed-sink operand table (see Trace). It rides the
	// cached Program pointer, so content-hash cache hits share it.
	traceOnce sync.Once
	trace     *TraceInfo
}

// FuncInfo is the execution metadata of one function.
type FuncInfo struct {
	// Entry is the function's first instruction, or -1 for a declared but
	// undefined function (calling it reproduces the walker's "call to
	// undefined function" error).
	Entry int32
	// NSlots is the frame size in binding slots: parameters first (in
	// order), then every local in Func.Locals order.
	NSlots int32
	// ArgWords is the number of value-stack words a call consumes: one
	// per parameter (by-value parameters pass their value, by-reference
	// parameters their resolved base address).
	ArgWords int32
	// MaxStack is the maximum value-stack depth the function's code
	// reaches, computed exactly by the compiler's linear depth tracking.
	MaxStack int32
}
