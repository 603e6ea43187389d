package ir

// The module codec: the one serialisation of a Module. Its bytes cross the
// wire between dp-serve nodes (internal/remote) and are the input of the
// module's content hash (Module.ContentHash), so there is exactly one
// answer to "are these two modules the same program".
//
// # Wire format
//
// An encoded module is
//
//	"DPIR" | version | name | files | regions | func headers | vars |
//	globals | main | func bodies
//
// with all integers as unsigned varints, strings as length-prefixed
// bytes, and float64 constants as 8 little-endian bytes of their IEEE
// bits. Cross-references (a statement naming a variable, a region naming
// its parent) are table indices, so the pointer graph of the in-memory
// module flattens deterministically: encoding the same module always
// yields the same bytes, and a module that round-trips through
// Decode(Encode(m)) re-encodes to identical bytes. Derived fields
// (static operation numbers, profiling state) are not part of the
// format; the receiving side recomputes them.
//
// Decode is strict: every index is bounds-checked, every count is
// capped by Limits before allocation, nesting depth is bounded, and the
// region/statement cross-links are validated (a loop statement must
// claim exactly one loop region of its own function). Arbitrary input
// bytes produce an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// magic identifies an encoded module; version is bumped on any change to
// the byte layout.
const (
	magic   = "DPIR"
	version = 1
)

// Limits bounds what Decode will accept. Every count read from the wire
// is checked against its limit before memory is allocated for it, so a
// hostile payload cannot make the decoder allocate more than the limits
// allow.
type Limits struct {
	// MaxBytes caps the encoded size.
	MaxBytes int
	// MaxFiles caps the source-file table.
	MaxFiles int
	// MaxVars caps the variable table.
	MaxVars int
	// MaxFuncs caps the function table.
	MaxFuncs int
	// MaxRegions caps the region table.
	MaxRegions int
	// MaxNodes caps the total number of statement and expression nodes.
	MaxNodes int
	// MaxDepth caps statement/expression nesting.
	MaxDepth int
	// MaxNameLen caps any single name or file string.
	MaxNameLen int
	// MaxTotalElems caps the summed element count of all variables — the
	// simulated memory footprint a decoded module can demand (the wire
	// analogue of the server's workload-scale cap).
	MaxTotalElems int64
}

// maxEncodeDepth bounds nesting on the encoding side, mirroring the
// decoder's default so Encode never produces bytes Decode would reject.
const maxEncodeDepth = 200

// DefaultLimits are generous enough for every bundled workload at the
// server's maximum scale while keeping a hostile payload's footprint
// bounded to a few tens of megabytes.
func DefaultLimits() Limits {
	return Limits{
		MaxBytes:      8 << 20,
		MaxFiles:      256,
		MaxVars:       1 << 16,
		MaxFuncs:      1024,
		MaxRegions:    1 << 16,
		MaxNodes:      1 << 20,
		MaxDepth:      maxEncodeDepth,
		MaxNameLen:    256,
		MaxTotalElems: 8 << 20, // 8M float64 elements = 64MB simulated memory
	}
}

// statement and expression tags. Zero is reserved so a truncated read
// cannot alias a valid node.
const (
	tsAssign = iota + 1
	tsIf
	tsFor
	tsWhile
	tsCall
	tsReturn
	tsSpawn
	tsSync
	tsLock
	tsFree
)

const (
	teConst = iota + 1
	teRef
	teBin
	teUn
	teRand
	teCall
)

// ---------------------------------------------------------------------------
// Encoding

// Encode serializes m into the versioned wire format. It validates the
// module's cross-reference invariants as it goes (table IDs matching
// indices, every reference naming an entry of its own module's table,
// parents preceding children), so a successful Encode guarantees the
// bytes decode back into an equivalent module.
func Encode(m *Module) ([]byte, error) {
	if m == nil {
		return nil, errors.New("ir: encode nil module")
	}
	// 2 KB holds every bundled workload's encoding without regrowing.
	e := &encoder{m: m, buf: make([]byte, 0, 2048)}
	e.buf = append(e.buf, magic...)
	e.uint(version)
	e.module()
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// encoder appends to buf and remembers the first failure: after one, the
// walk unwinds without recursing further and Encode discards the bytes.
type encoder struct {
	m   *Module
	buf []byte
	err error
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("ir: "+format, args...)
	}
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) loc(l Loc) {
	if l.File < 0 || l.Line < 0 {
		e.fail("negative location %v", l)
	}
	e.uint(uint64(l.File))
	e.uint(uint64(l.Line))
}

// inTable reports whether x is the entry its ID names. A reference is
// written as the referent's ID, which is its table index exactly when
// this holds — the check that replaces a pointer→index map per table.
func inTable[T comparable](table []T, id int, x T) bool {
	return id >= 0 && id < len(table) && table[id] == x
}

func (e *encoder) varRef(v *Var) {
	if v == nil || !inTable(e.m.Vars, v.ID, v) {
		e.fail("var reference outside module table")
		return
	}
	e.uint(uint64(v.ID))
}

func (e *encoder) funcRef(f *Func) {
	if f == nil || !inTable(e.m.Funcs, f.ID, f) {
		e.fail("func reference outside module table")
		return
	}
	e.uint(uint64(f.ID))
}

func (e *encoder) regionRef(r *Region) {
	if r == nil || !inTable(e.m.Regions, r.ID, r) {
		e.fail("region reference outside module table")
		return
	}
	e.uint(uint64(r.ID))
}

// optFunc and optRegion encode an optional reference: 0 for nil, index+1
// otherwise.
func (e *encoder) optFunc(f *Func) {
	if f == nil {
		e.uint(0)
	} else if !inTable(e.m.Funcs, f.ID, f) {
		e.fail("func reference outside module table")
	} else {
		e.uint(uint64(f.ID) + 1)
	}
}

func (e *encoder) optRegion(r *Region) {
	if r == nil {
		e.uint(0)
	} else if !inTable(e.m.Regions, r.ID, r) {
		e.fail("region reference outside module table")
	} else {
		e.uint(uint64(r.ID) + 1)
	}
}

func (e *encoder) module() {
	m := e.m
	e.str(m.Name)

	e.uint(uint64(len(m.Files)))
	for _, f := range m.Files {
		e.str(f)
	}

	// Region table. Parents must precede children so the decoder can wire
	// the tree in one pass.
	e.uint(uint64(len(m.Regions)))
	for i, r := range m.Regions {
		if r == nil || r.ID != i {
			e.fail("region table corrupt at %d", i)
			return
		}
		e.byte(byte(r.Kind))
		e.loc(r.Start)
		e.loc(r.End)
		if r.Parent != nil && r.Parent.ID >= i {
			e.fail("region %d parent out of order", i)
		}
		e.optRegion(r.Parent)
		e.optFunc(r.Func)
	}

	// Function headers (bodies follow at the end, once the var table is
	// known).
	e.uint(uint64(len(m.Funcs)))
	for i, f := range m.Funcs {
		if f == nil || f.ID != i {
			e.fail("func table corrupt at %d", i)
			return
		}
		e.str(f.Name)
		e.bool(f.HasRet)
		e.byte(byte(f.RetTyp))
		e.loc(f.Loc)
		e.loc(f.EndLoc)
		if f.Region == nil {
			e.fail("func %s has no region", f.Name)
		}
		e.regionRef(f.Region)
	}

	// Variable table.
	e.uint(uint64(len(m.Vars)))
	for i, v := range m.Vars {
		if v == nil || v.ID != i {
			e.fail("var table corrupt at %d", i)
			return
		}
		e.str(v.Name)
		e.byte(byte(v.Kind))
		e.byte(byte(v.Type))
		if v.Elems < 1 {
			e.fail("var %s has %d elems", v.Name, v.Elems)
		}
		e.uint(uint64(v.Elems))
		e.bool(v.ByValue)
		e.bool(v.Heap)
		e.loc(v.Decl)
		e.optRegion(v.DeclRegion)
		e.optFunc(v.Func)
	}

	// Globals, by index, in declaration order.
	e.uint(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		e.varRef(g)
	}

	if m.Main == nil {
		e.fail("module has no main function")
	}
	e.funcRef(m.Main)

	// Function bodies.
	for _, f := range m.Funcs {
		e.uint(uint64(len(f.Params)))
		for _, p := range f.Params {
			e.varRef(p)
		}
		e.uint(uint64(len(f.Locals)))
		for _, l := range f.Locals {
			e.varRef(l)
		}
		if f.Body == nil {
			e.fail("func %s has no body", f.Name)
		}
		e.block(f.Body, 0)
	}
}

// enter is the first call of every recursive step: false once anything
// has failed or the nesting passes what Decode accepts.
func (e *encoder) enter(depth int, what string) bool {
	if e.err == nil && depth > maxEncodeDepth {
		e.fail("%s nesting too deep to encode", what)
	}
	return e.err == nil
}

func (e *encoder) block(b *BlockStmt, depth int) {
	if !e.enter(depth, "statement") {
		return
	}
	if b == nil {
		e.fail("nil block")
		return
	}
	e.loc(b.Loc)
	e.uint(uint64(len(b.Decls)))
	for _, d := range b.Decls {
		e.varRef(d)
	}
	e.uint(uint64(len(b.List)))
	for _, s := range b.List {
		e.stmt(s, depth+1)
	}
}

func (e *encoder) stmt(s Stmt, depth int) {
	switch n := s.(type) {
	case *Assign:
		e.byte(tsAssign)
		e.loc(n.Loc)
		e.ref(n.Dst, depth)
		e.expr(n.Src, depth)
	case *If:
		e.byte(tsIf)
		e.loc(n.Loc)
		e.regionRef(n.Region)
		e.expr(n.Cond, depth)
		e.block(n.Then, depth)
		e.bool(n.Else != nil)
		if n.Else != nil {
			e.block(n.Else, depth)
		}
	case *For:
		e.byte(tsFor)
		e.loc(n.Loc)
		e.loc(n.EndLoc)
		e.regionRef(n.Region)
		e.varRef(n.IndVar)
		e.expr(n.From, depth)
		e.expr(n.To, depth)
		e.expr(n.Step, depth)
		e.block(n.Body, depth)
	case *While:
		e.byte(tsWhile)
		e.loc(n.Loc)
		e.loc(n.EndLoc)
		e.regionRef(n.Region)
		e.expr(n.Cond, depth)
		e.block(n.Body, depth)
	case *CallStmt:
		e.byte(tsCall)
		e.loc(n.Loc)
		e.call(n.Call, depth)
	case *Return:
		e.byte(tsReturn)
		e.loc(n.Loc)
		e.bool(n.Val != nil)
		if n.Val != nil {
			e.expr(n.Val, depth)
		}
	case *Spawn:
		e.byte(tsSpawn)
		e.loc(n.Loc)
		e.call(n.Call, depth)
	case *Sync:
		e.byte(tsSync)
		e.loc(n.Loc)
	case *LockRegion:
		e.byte(tsLock)
		e.loc(n.Loc)
		if n.MutexID < 0 {
			e.fail("negative mutex id %d", n.MutexID)
		}
		e.uint(uint64(n.MutexID))
		e.block(n.Body, depth)
	case *Free:
		e.byte(tsFree)
		e.loc(n.Loc)
		e.varRef(n.Var)
	case *BlockStmt:
		e.fail("bare block statement is not encodable")
	default:
		e.fail("unknown statement type %T", s)
	}
}

func (e *encoder) ref(r *Ref, depth int) {
	if r == nil {
		e.fail("nil ref")
		return
	}
	e.loc(r.Loc)
	e.varRef(r.Var)
	e.bool(r.Index != nil)
	if r.Index != nil {
		e.expr(r.Index, depth+1)
	}
}

func (e *encoder) call(c *CallExpr, depth int) {
	if c == nil {
		e.fail("nil call")
		return
	}
	e.loc(c.Loc)
	e.funcRef(c.Callee)
	e.uint(uint64(len(c.Args)))
	for _, a := range c.Args {
		e.expr(a, depth+1)
	}
}

func (e *encoder) expr(x Expr, depth int) {
	if !e.enter(depth, "expression") {
		return
	}
	switch n := x.(type) {
	case *Const:
		e.byte(teConst)
		e.loc(n.Loc)
		e.byte(byte(n.Typ))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(n.Val))
	case *Ref:
		e.byte(teRef)
		e.ref(n, depth)
	case *Bin:
		e.byte(teBin)
		e.loc(n.Loc)
		e.byte(byte(n.Op))
		e.expr(n.L, depth+1)
		e.expr(n.R, depth+1)
	case *Un:
		e.byte(teUn)
		e.loc(n.Loc)
		e.byte(byte(n.Op))
		e.expr(n.X, depth+1)
	case *Rand:
		e.byte(teRand)
		e.loc(n.Loc)
	case *CallExpr:
		e.byte(teCall)
		e.call(n, depth)
	default:
		e.fail("unknown expression type %T", x)
	}
}

// ---------------------------------------------------------------------------
// Decoding

// Decode parses an encoded module under DefaultLimits.
func Decode(data []byte) (*Module, error) {
	return DecodeLimits(data, DefaultLimits())
}

// DecodeLimits parses an encoded module, rejecting anything beyond lim.
// It never panics: malformed input yields an error.
func DecodeLimits(data []byte, lim Limits) (*Module, error) {
	if lim.MaxBytes > 0 && len(data) > lim.MaxBytes {
		return nil, fmt.Errorf("ir: module of %d bytes exceeds limit %d", len(data), lim.MaxBytes)
	}
	d := &decoder{data: data, lim: lim, nodes: lim.MaxNodes}
	if string(d.take(len(magic))) != magic {
		return nil, fmt.Errorf("ir: bad magic (not an encoded module)")
	}
	v, err := d.uint()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("ir: unsupported wire version %d (have %d)", v, version)
	}
	m, err := d.decodeModule()
	if err != nil {
		return nil, err
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("ir: %d trailing bytes after module", len(d.data)-d.off)
	}
	return m, nil
}

type decoder struct {
	data  []byte
	off   int
	lim   Limits
	nodes int // remaining statement/expression node budget

	m    *Module
	funs []*Func
	regs []*Region
	vars []*Var
	// regFunc records each region's encoded owner index for validation.
	regFunc []int
	// curFunc is the function whose body is being decoded.
	curFunc *Func
}

// take returns the next n raw bytes (nil when the input is short; callers
// that need them check length or go through typed readers that error).
func (d *decoder) take(n int) []byte {
	if n < 0 || d.off+n > len(d.data) {
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) uint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ir: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// count reads a length and checks it against max before the caller
// allocates.
func (d *decoder) count(max int, what string) (int, error) {
	v, err := d.uint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("ir: %s count %d exceeds limit %d", what, v, max)
	}
	return int(v), nil
}

func (d *decoder) byte() (byte, error) {
	b := d.take(1)
	if b == nil {
		return 0, fmt.Errorf("ir: truncated input at offset %d", d.off)
	}
	return b[0], nil
}

func (d *decoder) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("ir: bad bool byte %d", b)
}

func (d *decoder) f64() (float64, error) {
	b := d.take(8)
	if b == nil {
		return 0, fmt.Errorf("ir: truncated float at offset %d", d.off)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count(d.lim.MaxNameLen, "string length")
	if err != nil {
		return "", err
	}
	b := d.take(n)
	if b == nil {
		return "", fmt.Errorf("ir: truncated string at offset %d", d.off)
	}
	return string(b), nil
}

func (d *decoder) loc() (Loc, error) {
	f, err := d.uint()
	if err != nil {
		return Loc{}, err
	}
	l, err := d.uint()
	if err != nil {
		return Loc{}, err
	}
	if f > math.MaxInt32 || l > math.MaxInt32 {
		return Loc{}, fmt.Errorf("ir: location %d:%d out of range", f, l)
	}
	return Loc{File: int32(f), Line: int32(l)}, nil
}

// idx reads a required table index in [0, n).
func (d *decoder) idx(n int, what string) (int, error) {
	v, err := d.uint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(n) {
		return 0, fmt.Errorf("ir: %s index %d out of range (table has %d)", what, v, n)
	}
	return int(v), nil
}

// optIdx reads an optional index: -1 for absent, else [0, n).
func (d *decoder) optIdx(n int, what string) (int, error) {
	v, err := d.uint()
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return -1, nil
	}
	if v-1 >= uint64(n) {
		return 0, fmt.Errorf("ir: %s index %d out of range (table has %d)", what, v-1, n)
	}
	return int(v - 1), nil
}

// node charges one statement/expression node against the budget.
func (d *decoder) node() error {
	d.nodes--
	if d.nodes < 0 {
		return fmt.Errorf("ir: module exceeds %d-node budget", d.lim.MaxNodes)
	}
	return nil
}

func (d *decoder) decodeModule() (*Module, error) {
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	d.m = &Module{Name: name}

	nf, err := d.count(d.lim.MaxFiles, "file")
	if err != nil {
		return nil, err
	}
	d.m.Files = make([]string, nf)
	for i := range d.m.Files {
		if d.m.Files[i], err = d.str(); err != nil {
			return nil, err
		}
	}

	// Regions: structure first, function owners and statements wired later.
	nr, err := d.count(d.lim.MaxRegions, "region")
	if err != nil {
		return nil, err
	}
	d.regs = make([]*Region, nr)
	d.regFunc = make([]int, nr)
	for i := range d.regs {
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		if kind > byte(RBranch) {
			return nil, fmt.Errorf("ir: region %d has bad kind %d", i, kind)
		}
		start, err := d.loc()
		if err != nil {
			return nil, err
		}
		end, err := d.loc()
		if err != nil {
			return nil, err
		}
		parent, err := d.optIdx(nr, "region parent")
		if err != nil {
			return nil, err
		}
		if parent >= i {
			return nil, fmt.Errorf("ir: region %d references parent %d out of order", i, parent)
		}
		r := &Region{ID: i, Kind: RegionKind(kind), Start: start, End: end}
		if parent >= 0 {
			r.Parent = d.regs[parent]
			d.regs[parent].Children = append(d.regs[parent].Children, r)
		}
		if d.regFunc[i], err = d.optIdx(d.lim.MaxFuncs, "region func"); err != nil {
			return nil, err
		}
		d.regs[i] = r
	}
	d.m.Regions = d.regs

	// Function headers.
	nfn, err := d.count(d.lim.MaxFuncs, "func")
	if err != nil {
		return nil, err
	}
	d.funs = make([]*Func, nfn)
	funcRegions := make([]int, nfn)
	for i := range d.funs {
		f := &Func{ID: i}
		if f.Name, err = d.str(); err != nil {
			return nil, err
		}
		if f.HasRet, err = d.bool(); err != nil {
			return nil, err
		}
		typ, err := d.byte()
		if err != nil {
			return nil, err
		}
		if typ > byte(F64) {
			return nil, fmt.Errorf("ir: func %s has bad return type %d", f.Name, typ)
		}
		f.RetTyp = Type(typ)
		if f.Loc, err = d.loc(); err != nil {
			return nil, err
		}
		if f.EndLoc, err = d.loc(); err != nil {
			return nil, err
		}
		if funcRegions[i], err = d.idx(nr, "func region"); err != nil {
			return nil, err
		}
		d.funs[i] = f
	}
	d.m.Funcs = d.funs

	// Wire regions to their owner functions, and functions to their body
	// regions, validating both directions.
	for i, r := range d.regs {
		fi := d.regFunc[i]
		if fi < 0 {
			if r.Kind != RFunc {
				return nil, fmt.Errorf("ir: region %d (%s) has no function", i, r.Kind)
			}
			continue
		}
		if fi >= nfn {
			return nil, fmt.Errorf("ir: region %d references func %d of %d", i, fi, nfn)
		}
		r.Func = d.funs[fi]
	}
	claimed := make([]bool, nr)
	for i, f := range d.funs {
		ri := funcRegions[i]
		r := d.regs[ri]
		if r.Kind != RFunc {
			return nil, fmt.Errorf("ir: func %s claims non-function region %d", f.Name, ri)
		}
		if claimed[ri] {
			return nil, fmt.Errorf("ir: region %d claimed by two functions", ri)
		}
		if r.Func != f {
			return nil, fmt.Errorf("ir: func %s and region %d disagree on ownership", f.Name, ri)
		}
		claimed[ri] = true
		f.Region = r
	}
	for i, r := range d.regs {
		if r.Kind == RFunc && !claimed[i] {
			return nil, fmt.Errorf("ir: orphan function region %d", i)
		}
	}

	// Variable table.
	nv, err := d.count(d.lim.MaxVars, "var")
	if err != nil {
		return nil, err
	}
	d.vars = make([]*Var, nv)
	var totalElems uint64
	for i := range d.vars {
		v := &Var{ID: i}
		if v.Name, err = d.str(); err != nil {
			return nil, err
		}
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		if kind > byte(KLocal) {
			return nil, fmt.Errorf("ir: var %s has bad kind %d", v.Name, kind)
		}
		v.Kind = VarKind(kind)
		typ, err := d.byte()
		if err != nil {
			return nil, err
		}
		if typ > byte(F64) {
			return nil, fmt.Errorf("ir: var %s has bad type %d", v.Name, typ)
		}
		v.Type = Type(typ)
		elems, err := d.uint()
		if err != nil {
			return nil, err
		}
		// Compare in uint64 before any signed cast: a wire value >= 2^63
		// would go negative as int64 and slip past both the per-var and
		// the running-total caps.
		if elems < 1 || elems > uint64(d.lim.MaxTotalElems) {
			return nil, fmt.Errorf("ir: var %s has %d elems", v.Name, elems)
		}
		v.Elems = int(elems)
		// Each addend is bounded by MaxTotalElems and the sum is checked
		// every iteration, so totalElems never exceeds 2*MaxTotalElems and
		// cannot wrap a uint64.
		totalElems += elems
		if totalElems > uint64(d.lim.MaxTotalElems) {
			return nil, fmt.Errorf("ir: module footprint exceeds %d elements", d.lim.MaxTotalElems)
		}
		if v.ByValue, err = d.bool(); err != nil {
			return nil, err
		}
		if v.Heap, err = d.bool(); err != nil {
			return nil, err
		}
		if v.Decl, err = d.loc(); err != nil {
			return nil, err
		}
		ri, err := d.optIdx(nr, "var region")
		if err != nil {
			return nil, err
		}
		if ri >= 0 {
			v.DeclRegion = d.regs[ri]
		}
		fi, err := d.optIdx(nfn, "var func")
		if err != nil {
			return nil, err
		}
		if fi >= 0 {
			v.Func = d.funs[fi]
		}
		d.vars[i] = v
	}
	d.m.Vars = d.vars

	// Globals.
	ng, err := d.count(nv, "global")
	if err != nil {
		return nil, err
	}
	d.m.Globals = make([]*Var, ng)
	for i := range d.m.Globals {
		gi, err := d.idx(nv, "global")
		if err != nil {
			return nil, err
		}
		if d.vars[gi].Kind != KGlobal {
			return nil, fmt.Errorf("ir: global list names %s var %s", d.vars[gi].Kind, d.vars[gi].Name)
		}
		d.m.Globals[i] = d.vars[gi]
	}

	mi, err := d.idx(nfn, "main func")
	if err != nil {
		return nil, err
	}
	d.m.Main = d.funs[mi]

	// Function bodies.
	for _, f := range d.funs {
		d.curFunc = f
		np, err := d.count(nv, "param")
		if err != nil {
			return nil, err
		}
		f.Params = make([]*Var, np)
		for i := range f.Params {
			pi, err := d.idx(nv, "param")
			if err != nil {
				return nil, err
			}
			p := d.vars[pi]
			if p.Kind != KParam || p.Func != f {
				return nil, fmt.Errorf("ir: func %s claims foreign param %s", f.Name, p.Name)
			}
			f.Params[i] = p
		}
		nl, err := d.count(nv, "local")
		if err != nil {
			return nil, err
		}
		f.Locals = make([]*Var, nl)
		for i := range f.Locals {
			li, err := d.idx(nv, "local")
			if err != nil {
				return nil, err
			}
			l := d.vars[li]
			if l.Kind != KLocal || l.Func != f {
				return nil, fmt.Errorf("ir: func %s claims foreign local %s", f.Name, l.Name)
			}
			f.Locals[i] = l
		}
		if f.Body, err = d.decodeBlock(0); err != nil {
			return nil, fmt.Errorf("%w (in func %s)", err, f.Name)
		}
	}

	if len(d.m.Main.Params) != 0 {
		return nil, fmt.Errorf("ir: main function takes parameters")
	}
	// Every loop and branch region must have been claimed by exactly one
	// statement; decodeStmt enforces single claims, this catches orphans.
	for i, r := range d.regs {
		if r.Kind != RFunc && r.Stmt == nil {
			return nil, fmt.Errorf("ir: %s region %d has no defining statement", r.Kind, i)
		}
	}
	return d.m, nil
}

func (d *decoder) decodeBlock(depth int) (*BlockStmt, error) {
	if depth > d.lim.MaxDepth {
		return nil, fmt.Errorf("ir: statement nesting exceeds depth %d", d.lim.MaxDepth)
	}
	if err := d.node(); err != nil {
		return nil, err
	}
	loc, err := d.loc()
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Loc: loc}
	nd, err := d.count(len(d.vars), "block decl")
	if err != nil {
		return nil, err
	}
	b.Decls = make([]*Var, nd)
	for i := range b.Decls {
		di, err := d.idx(len(d.vars), "block decl")
		if err != nil {
			return nil, err
		}
		v := d.vars[di]
		if v.Kind != KLocal || v.Func != d.curFunc {
			return nil, fmt.Errorf("ir: block declares foreign var %s", v.Name)
		}
		b.Decls[i] = v
	}
	ns, err := d.count(d.nodes+1, "block statement")
	if err != nil {
		return nil, err
	}
	b.List = make([]Stmt, ns)
	for i := range b.List {
		if b.List[i], err = d.decodeStmt(depth + 1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// claimRegion resolves a region index for a loop or branch statement,
// enforcing kind, ownership, and single use.
func (d *decoder) claimRegion(kind RegionKind, s Stmt) (*Region, error) {
	ri, err := d.idx(len(d.regs), "statement region")
	if err != nil {
		return nil, err
	}
	r := d.regs[ri]
	if r.Kind != kind {
		return nil, fmt.Errorf("ir: statement claims %s region %d as %s", r.Kind, ri, kind)
	}
	if r.Stmt != nil {
		return nil, fmt.Errorf("ir: region %d claimed by two statements", ri)
	}
	if r.Func != d.curFunc {
		return nil, fmt.Errorf("ir: statement claims region %d of another function", ri)
	}
	r.Stmt = s
	return r, nil
}

func (d *decoder) decodeStmt(depth int) (Stmt, error) {
	if depth > d.lim.MaxDepth {
		return nil, fmt.Errorf("ir: statement nesting exceeds depth %d", d.lim.MaxDepth)
	}
	if err := d.node(); err != nil {
		return nil, err
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	loc, err := d.loc()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tsAssign:
		dst, err := d.decodeRef(depth)
		if err != nil {
			return nil, err
		}
		src, err := d.decodeExpr(depth)
		if err != nil {
			return nil, err
		}
		return &Assign{Loc: loc, Dst: dst, Src: src}, nil
	case tsIf:
		n := &If{Loc: loc}
		if n.Region, err = d.claimRegion(RBranch, n); err != nil {
			return nil, err
		}
		if n.Cond, err = d.decodeExpr(depth); err != nil {
			return nil, err
		}
		if n.Then, err = d.decodeBlock(depth); err != nil {
			return nil, err
		}
		hasElse, err := d.bool()
		if err != nil {
			return nil, err
		}
		if hasElse {
			if n.Else, err = d.decodeBlock(depth); err != nil {
				return nil, err
			}
		}
		return n, nil
	case tsFor:
		n := &For{Loc: loc}
		if n.EndLoc, err = d.loc(); err != nil {
			return nil, err
		}
		if n.Region, err = d.claimRegion(RLoop, n); err != nil {
			return nil, err
		}
		ii, err := d.idx(len(d.vars), "induction var")
		if err != nil {
			return nil, err
		}
		n.IndVar = d.vars[ii]
		if n.IndVar.Func != d.curFunc {
			return nil, fmt.Errorf("ir: loop claims foreign induction var %s", n.IndVar.Name)
		}
		if n.From, err = d.decodeExpr(depth); err != nil {
			return nil, err
		}
		if n.To, err = d.decodeExpr(depth); err != nil {
			return nil, err
		}
		if n.Step, err = d.decodeExpr(depth); err != nil {
			return nil, err
		}
		if n.Body, err = d.decodeBlock(depth); err != nil {
			return nil, err
		}
		return n, nil
	case tsWhile:
		n := &While{Loc: loc}
		if n.EndLoc, err = d.loc(); err != nil {
			return nil, err
		}
		if n.Region, err = d.claimRegion(RLoop, n); err != nil {
			return nil, err
		}
		if n.Cond, err = d.decodeExpr(depth); err != nil {
			return nil, err
		}
		if n.Body, err = d.decodeBlock(depth); err != nil {
			return nil, err
		}
		return n, nil
	case tsCall:
		call, err := d.decodeCall(depth)
		if err != nil {
			return nil, err
		}
		return &CallStmt{Loc: loc, Call: call}, nil
	case tsReturn:
		hasVal, err := d.bool()
		if err != nil {
			return nil, err
		}
		n := &Return{Loc: loc}
		if hasVal {
			if n.Val, err = d.decodeExpr(depth); err != nil {
				return nil, err
			}
		}
		return n, nil
	case tsSpawn:
		call, err := d.decodeCall(depth)
		if err != nil {
			return nil, err
		}
		return &Spawn{Loc: loc, Call: call}, nil
	case tsSync:
		return &Sync{Loc: loc}, nil
	case tsLock:
		id, err := d.uint()
		if err != nil {
			return nil, err
		}
		if id > 1<<16 {
			return nil, fmt.Errorf("ir: mutex id %d out of range", id)
		}
		n := &LockRegion{Loc: loc, MutexID: int(id)}
		if n.Body, err = d.decodeBlock(depth); err != nil {
			return nil, err
		}
		return n, nil
	case tsFree:
		vi, err := d.idx(len(d.vars), "freed var")
		if err != nil {
			return nil, err
		}
		return &Free{Loc: loc, Var: d.vars[vi]}, nil
	default:
		return nil, fmt.Errorf("ir: unknown statement tag %d", tag)
	}
}

func (d *decoder) decodeRef(depth int) (*Ref, error) {
	loc, err := d.loc()
	if err != nil {
		return nil, err
	}
	vi, err := d.idx(len(d.vars), "ref var")
	if err != nil {
		return nil, err
	}
	r := &Ref{Loc: loc, Var: d.vars[vi]}
	hasIdx, err := d.bool()
	if err != nil {
		return nil, err
	}
	if hasIdx {
		if r.Index, err = d.decodeExpr(depth + 1); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (d *decoder) decodeCall(depth int) (*CallExpr, error) {
	loc, err := d.loc()
	if err != nil {
		return nil, err
	}
	fi, err := d.idx(len(d.funs), "callee")
	if err != nil {
		return nil, err
	}
	c := &CallExpr{Loc: loc, Callee: d.funs[fi]}
	na, err := d.count(d.nodes+1, "call args")
	if err != nil {
		return nil, err
	}
	c.Args = make([]Expr, na)
	for i := range c.Args {
		if c.Args[i], err = d.decodeExpr(depth + 1); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (d *decoder) decodeExpr(depth int) (Expr, error) {
	if depth > d.lim.MaxDepth {
		return nil, fmt.Errorf("ir: expression nesting exceeds depth %d", d.lim.MaxDepth)
	}
	if err := d.node(); err != nil {
		return nil, err
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case teConst:
		loc, err := d.loc()
		if err != nil {
			return nil, err
		}
		typ, err := d.byte()
		if err != nil {
			return nil, err
		}
		if typ > byte(F64) {
			return nil, fmt.Errorf("ir: const has bad type %d", typ)
		}
		val, err := d.f64()
		if err != nil {
			return nil, err
		}
		return &Const{Loc: loc, Typ: Type(typ), Val: val}, nil
	case teRef:
		return d.decodeRef(depth)
	case teBin:
		loc, err := d.loc()
		if err != nil {
			return nil, err
		}
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if op > byte(OpMax) {
			return nil, fmt.Errorf("ir: bad binary op %d", op)
		}
		l, err := d.decodeExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		r, err := d.decodeExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		return &Bin{Loc: loc, Op: BinOp(op), L: l, R: r}, nil
	case teUn:
		loc, err := d.loc()
		if err != nil {
			return nil, err
		}
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if op > byte(OpFloor) {
			return nil, fmt.Errorf("ir: bad unary op %d", op)
		}
		x, err := d.decodeExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		return &Un{Loc: loc, Op: UnOp(op), X: x}, nil
	case teRand:
		loc, err := d.loc()
		if err != nil {
			return nil, err
		}
		return &Rand{Loc: loc}, nil
	case teCall:
		return d.decodeCall(depth)
	default:
		return nil, fmt.Errorf("ir: unknown expression tag %d", tag)
	}
}
