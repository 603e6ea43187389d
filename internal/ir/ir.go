// Package ir defines the intermediate representation used by the DiscoPoP-Go
// framework. It plays the role LLVM IR plays in the paper: workloads are
// constructed as modules of functions over scalar and array variables, every
// statement carries a source location (fileID:line), and control constructs
// (functions, loops, branches) define the control regions that the profiler,
// the computational-unit builder, and the discovery algorithms reason about.
//
// The representation is a structured three-address-style AST rather than a
// textual IR.
package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type is the scalar type of a variable. The runtime representation is
// uniformly float64 (exact for integers below 2^53); the declared type is
// retained for printing and for the feature extraction of Chapter 5.
type Type uint8

const (
	// I64 is a 64-bit integer variable.
	I64 Type = iota
	// F64 is a double-precision floating-point variable.
	F64
)

func (t Type) String() string {
	if t == I64 {
		return "i64"
	}
	return "f64"
}

// Loc is a source-code location, the <fileID:lineID> pair of the paper's
// dependence representation (Section 2.3.1).
type Loc struct {
	File int32
	Line int32
}

func (l Loc) String() string { return fmt.Sprintf("%d:%d", l.File, l.Line) }

// ParseLoc inverts Loc.String ("file:line"). It rejects a number outside
// int32 rather than truncating it.
func ParseLoc(s string) (Loc, error) {
	f, l, ok := strings.Cut(s, ":")
	file, err1 := strconv.ParseInt(f, 10, 32)
	line, err2 := strconv.ParseInt(l, 10, 32)
	if !ok || err1 != nil || err2 != nil {
		return Loc{}, fmt.Errorf("ir: malformed location %q", s)
	}
	return Loc{File: int32(file), Line: int32(line)}, nil
}

// Key packs a Loc into a comparable 64-bit key.
func (l Loc) Key() uint64 { return uint64(uint32(l.File))<<32 | uint64(uint32(l.Line)) }

// LocFromKey unpacks a key produced by Loc.Key.
func LocFromKey(k uint64) Loc {
	return Loc{File: int32(k >> 32), Line: int32(uint32(k))}
}

// VarKind classifies where a variable is declared. The distinction between
// variables global and local to a region drives CU construction (Section 3.2.1).
type VarKind uint8

const (
	// KGlobal is a module-level variable, global to every region.
	KGlobal VarKind = iota
	// KParam is a function parameter.
	KParam
	// KLocal is a variable declared inside a function or a nested block.
	KLocal
)

func (k VarKind) String() string {
	switch k {
	case KGlobal:
		return "global"
	case KParam:
		return "param"
	default:
		return "local"
	}
}

// Var is a named storage location: a scalar (Elems == 1) or a contiguous
// array of Elems scalars. Vars are the unit of the paper's variable lifetime
// analysis and of the globalVars sets used in Algorithm 3.
type Var struct {
	ID      int // module-unique
	Name    string
	Kind    VarKind
	Type    Type
	Elems   int  // number of scalar elements; 1 for scalars
	ByValue bool // for params: passed by value (copied) vs by reference
	Heap    bool // allocated on the simulated heap (explicit Free possible)
	Decl    Loc
	// DeclRegion is the region in whose body the variable is declared
	// (nil for module globals).
	DeclRegion *Region
	// Func is the function owning the variable (nil for module globals).
	Func *Func
	// ParamOp is the static memory-operation ID of the parameter-binding
	// store for by-value parameters, assigned by interp.PrepareOps; 0
	// otherwise. Without it every parameter store in the module would
	// share one operation identity, aliasing the per-operation state of
	// the skip optimization and the profiler's line counters.
	ParamOp int32
}

func (v *Var) String() string { return v.Name }

// IsArray reports whether v has more than one element.
func (v *Var) IsArray() bool { return v.Elems > 1 }

// RegionKind classifies control regions (Section 2.3.6).
type RegionKind uint8

const (
	// RFunc is a function body region.
	RFunc RegionKind = iota
	// RLoop is a loop body region (for or while).
	RLoop
	// RBranch is an if/else region.
	RBranch
)

func (k RegionKind) String() string {
	switch k {
	case RFunc:
		return "function"
	case RLoop:
		return "loop"
	default:
		return "branch"
	}
}

// Region is a single-entry control region: a function body, a loop, or a
// branch. Regions nest; CUs never cross region boundaries (Section 3.1).
type Region struct {
	ID       int
	Kind     RegionKind
	Start    Loc
	End      Loc
	Parent   *Region
	Children []*Region
	Func     *Func
	// Stmt is the defining statement: *For or *While for RLoop, *If for
	// RBranch, nil for RFunc.
	Stmt Stmt
}

func (r *Region) String() string {
	return fmt.Sprintf("%s %s-%s", r.Kind, r.Start, r.End)
}

// Encloses reports whether r (strictly or not) encloses s.
func (r *Region) Encloses(s *Region) bool {
	for ; s != nil; s = s.Parent {
		if s == r {
			return true
		}
	}
	return false
}

// Depth returns the nesting depth of the region (function body = 0).
func (r *Region) Depth() int {
	d := 0
	for p := r.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Func is a function definition.
type Func struct {
	ID     int
	Name   string
	Params []*Var
	HasRet bool
	RetTyp Type
	Body   *BlockStmt
	Loc    Loc
	EndLoc Loc
	Region *Region
	// Locals lists every local declared anywhere in the function, in
	// declaration order, for frame allocation by the interpreter.
	Locals []*Var
}

func (f *Func) String() string { return f.Name }

// Module is the top-level IR container, mirroring an LLVM module.
type Module struct {
	Name    string
	Files   []string
	Funcs   []*Func
	Globals []*Var
	Regions []*Region // all regions, indexed by Region.ID
	Vars    []*Var    // all vars, indexed by Var.ID
	// Main is the entry function.
	Main *Func

	// opsOnce guards the one-time static memory-operation numbering (see
	// NumberOps). Numbering is deterministic, so recording it once lets
	// every later request read instead of re-writing Ref.Op fields that
	// concurrent analyses of the same module may be reading.
	opsOnce sync.Once
	numOps  int32

	// hashOnce guards the one-time content hash (see ContentHash).
	hashOnce sync.Once
	hash     [32]byte
}

// NumberOps runs the static memory-operation numbering exactly once per
// module (synchronized) and returns the recorded operation count on every
// call. The numbering function must be deterministic; interp.PrepareOps is
// the canonical caller.
func (m *Module) NumberOps(number func(*Module) int32) int32 {
	m.opsOnce.Do(func() { m.numOps = number(m) })
	return m.numOps
}

// ContentHash is the module's identity: sha256 over its canonical encoding
// (Encode), computed once per instance. Two instances with equal hashes are
// the same program — a compiled Program or a recorded profile of one serves
// the other — whether they were built twice from one workload spec or
// decoded from the wire, and it is the only key the compile and profile
// caches use. The module must not change after the first call.
//
// A module Encode refuses (a forward-declared function never defined,
// anything past one of the codec's caps) has no canonical bytes; it gets a
// digest no other instance in the process shares, so it still compiles and
// profiles, as uncached as if it had no key, and can never be mistaken for
// another module.
func (m *Module) ContentHash() [32]byte {
	m.hashOnce.Do(func() {
		if enc, err := Encode(m); err == nil {
			m.hash = sha256.Sum256(enc)
		} else {
			m.hash = sha256.Sum256(binary.LittleEndian.AppendUint64(
				[]byte("DPIR unencodable module #"), unencodable.Add(1)))
		}
	})
	return m.hash
}

// unencodable numbers the modules ContentHash could not encode.
var unencodable atomic.Uint64

// RegionAt returns the innermost region whose [Start,End] line span of the
// same file contains loc, or nil.
func (m *Module) RegionAt(loc Loc) *Region {
	var best *Region
	for _, r := range m.Regions {
		if r.Start.File != loc.File {
			continue
		}
		if r.Start.Line <= loc.Line && loc.Line <= r.End.Line {
			if best == nil || best.Encloses(r) {
				best = r
			}
		}
	}
	return best
}
