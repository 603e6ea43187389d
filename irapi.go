package discopop

import (
	"discopop/internal/ir"
)

// Re-exported IR construction API, so that downstream users can assemble
// analyzable programs without importing internal packages. The builder
// assigns realistic <fileID:lineID> locations and maintains the control
// region tree automatically.
type (
	// Builder constructs a Module.
	Builder = ir.Builder
	// FuncBuilder emits statements into one function.
	FuncBuilder = ir.FuncBuilder
	// Var is a scalar or array variable.
	Var = ir.Var
	// Expr is an expression node.
	Expr = ir.Expr
	// Func is a function definition.
	Func = ir.Func
	// Loc is a <fileID:lineID> source location.
	Loc = ir.Loc
)

// Scalar types.
const (
	I64 = ir.I64
	F64 = ir.F64
)

// Construction entry point and expression constructors, re-exported.
var (
	// NewBuilder starts a new module.
	NewBuilder = ir.NewBuilder

	// V reads a scalar variable; At reads an array element.
	V  = ir.V
	At = ir.At
	// CI and CF are integer and floating-point constants.
	CI = ir.CI
	CF = ir.CF

	// Arithmetic.
	Add   = ir.Add
	Sub   = ir.Sub
	Mul   = ir.Mul
	Div   = ir.Div
	ModE  = ir.Mod
	Min   = ir.Min
	Max   = ir.Max
	Neg   = ir.Neg
	Abs   = ir.Abs
	SqrtE = ir.Sqrt
	Floor = ir.Floor

	// Comparisons.
	Lt = ir.Lt
	Le = ir.Le
	Gt = ir.Gt
	Ge = ir.Ge
	Eq = ir.Eq
	Ne = ir.Ne

	// Rnd is a deterministic pseudo-random source.
	Rnd = ir.Rnd
)

// Serialized modules: the versioned, deterministic wire format used to
// ship modules between dp-serve nodes (and accepted by POST /v1/analyze
// as the "module" body kind). EncodeModule is a pure function of the
// module structure; DecodeModule validates strictly under the codec's caps
// and never panics on malformed input.
var (
	// EncodeModule serializes a module into the wire format.
	EncodeModule = ir.Encode
	// DecodeModule parses a wire-format module under the codec's caps.
	DecodeModule = ir.Decode
)
