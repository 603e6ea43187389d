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
// checked against its cap before allocation, nesting depth is bounded, and
// the region/statement cross-links are validated (a loop statement must
// claim exactly one loop region of its own function). Arbitrary input
// bytes produce an error, never a panic. Encode refuses a module past any
// of the same caps, so what one side writes the other reads.
//
// Both halves keep one sticky error (walk): the first failure is the one
// reported, recursion stops at the next enter, and from then on the
// decoder's reads yield zero values, so no call site checks an error.

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

// The codec's caps. They are generous enough for every bundled workload at
// the server's maximum scale while keeping a hostile payload's footprint
// bounded to a few tens of megabytes.
const (
	// MaxModuleBytes caps the encoded size.
	MaxModuleBytes = 8 << 20
	maxFiles       = 256
	maxVars        = 1 << 16
	maxFuncs       = 1024
	maxRegions     = 1 << 16
	// maxNodes caps the total number of block, statement and expression
	// nodes.
	maxNodes = 1 << 20
	// maxDepth caps statement/expression nesting.
	maxDepth = 200
	// maxNameLen caps any single name or file string.
	maxNameLen = 256
	// maxTotalElems caps the summed element count of all variables — the
	// simulated memory footprint a decoded module can demand (the wire
	// analogue of the server's workload-scale cap): 8M float64 elements =
	// 64MB simulated memory.
	maxTotalElems = 8 << 20
	maxMutexID    = 1 << 16
)

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

// walk is the state the encoder and the decoder share: the first failure,
// after which the walk unwinds without recursing further and the result is
// discarded, and the number of nodes visited so far.
type walk struct {
	err   error
	nodes int
}

func (w *walk) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("ir: "+format, args...)
	}
}

// enter is the first call of every recursive step: it charges one node
// against maxNodes, checks the nesting depth, and is false once anything
// has failed.
func (w *walk) enter(depth int, what string) bool {
	w.nodes++
	if depth > maxDepth {
		w.fail("%s nesting exceeds depth %d", what, maxDepth)
	} else if w.nodes > maxNodes {
		w.fail("module exceeds %d-node budget", maxNodes)
	}
	return w.err == nil
}

// ---------------------------------------------------------------------------
// Encoding

// Encode serializes m into the versioned wire format. It validates the
// module's cross-reference invariants as it goes (table IDs matching
// indices, every reference naming an entry of its own module's table,
// parents preceding children) and refuses a module past any cap Decode
// enforces, so the bytes of a well-formed module decode back into an
// equivalent one.
func Encode(m *Module) ([]byte, error) {
	if m == nil {
		return nil, errors.New("ir: encode nil module")
	}
	// 2 KB holds every bundled workload's encoding without regrowing.
	e := &encoder{m: m, buf: make([]byte, 0, 2048)}
	e.buf = append(e.buf, magic...)
	e.uint(version)
	e.module()
	if len(e.buf) > MaxModuleBytes {
		e.fail("module of %d bytes exceeds limit %d", len(e.buf), MaxModuleBytes)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// encoder appends to buf; walk holds its first failure.
type encoder struct {
	walk
	m   *Module
	buf []byte
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// count writes a table length, which must not exceed max.
func (e *encoder) count(n, max int, what string) {
	if n > max {
		e.fail("%s count %d exceeds limit %d", what, n, max)
	}
	e.uint(uint64(n))
}

func (e *encoder) str(s string) {
	e.count(len(s), maxNameLen, "string length")
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

	e.count(len(m.Files), maxFiles, "file")
	for _, f := range m.Files {
		e.str(f)
	}

	// Region table. Parents must precede children so the decoder can wire
	// the tree in one pass.
	e.count(len(m.Regions), maxRegions, "region")
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
	e.count(len(m.Funcs), maxFuncs, "func")
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
	e.count(len(m.Vars), maxVars, "var")
	total := 0
	for i, v := range m.Vars {
		if v == nil || v.ID != i {
			e.fail("var table corrupt at %d", i)
			return
		}
		e.str(v.Name)
		e.byte(byte(v.Kind))
		e.byte(byte(v.Type))
		if v.Elems < 1 || v.Elems > maxTotalElems {
			e.fail("var %s has %d elems", v.Name, v.Elems)
		}
		if total += v.Elems; total > maxTotalElems {
			e.fail("module footprint exceeds %d elements", maxTotalElems)
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
	if !e.enter(depth, "statement") {
		return
	}
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
		if n.MutexID < 0 || n.MutexID > maxMutexID {
			e.fail("mutex id %d out of range", n.MutexID)
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
//
// The reads mirror the writes above one for one. Where a composite literal
// reads several fields, Go evaluates its calls left to right, which is the
// wire order.

// Decode parses an encoded module. It never panics: malformed input, or
// input past one of the caps, yields an error.
func Decode(data []byte) (*Module, error) {
	if len(data) > MaxModuleBytes {
		return nil, fmt.Errorf("ir: module of %d bytes exceeds limit %d", len(data), MaxModuleBytes)
	}
	d := &decoder{data: data}
	if string(d.take(len(magic))) != magic {
		return nil, errors.New("ir: bad magic (not an encoded module)")
	}
	if v := d.uint(); v != version {
		d.fail("unsupported wire version %d (have %d)", v, version)
	}
	d.module()
	if d.off != len(d.data) {
		d.fail("%d trailing bytes after module", len(d.data)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return d.m, nil
}

// decoder reads from data at off; walk holds its first failure.
type decoder struct {
	walk
	data []byte
	off  int

	m    *Module
	funs []*Func
	regs []*Region
	vars []*Var
	// regFunc records each region's encoded owner index for validation.
	regFunc []int
	// cur is the function whose body is being decoded.
	cur *Func
}

// take returns the next n raw bytes, or nil after a failure.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data)-d.off {
		d.fail("truncated input at offset %d", d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a length and checks it against max before the caller
// allocates.
func (d *decoder) count(max int, what string) int {
	v := d.uint()
	if v > uint64(max) {
		d.fail("%s count %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail("bad bool byte %d", b)
	}
	return b == 1
}

// enum reads a kind, type or op byte, which must not exceed max.
func (d *decoder) enum(max byte, what string) byte {
	b := d.byte()
	if b > max {
		d.fail("bad %s %d", what, b)
		return 0
	}
	return b
}

func (d *decoder) f64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *decoder) str() string {
	return string(d.take(d.count(maxNameLen, "string length")))
}

func (d *decoder) loc() Loc {
	f, l := d.uint(), d.uint()
	if f > math.MaxInt32 || l > math.MaxInt32 {
		d.fail("location %d:%d out of range", f, l)
		return Loc{}
	}
	return Loc{File: int32(f), Line: int32(l)}
}

// idx reads a required table index in [0, n); -1 after a failure.
func (d *decoder) idx(n int, what string) int {
	v := d.uint()
	if v >= uint64(n) {
		d.fail("%s index %d out of range (table has %d)", what, v, n)
	}
	if d.err != nil {
		return -1
	}
	return int(v)
}

// optIdx reads an optional index: -1 for absent (or after a failure), else
// [0, n).
func (d *decoder) optIdx(n int, what string) int {
	v := d.uint()
	if v == 0 {
		return -1
	}
	if v-1 >= uint64(n) {
		d.fail("%s index %d out of range (table has %d)", what, v-1, n)
		return -1
	}
	return int(v - 1)
}

// at resolves a required index into table. After a failure it returns a
// fresh placeholder, so a read that failed never indexes a table and the
// walk goes on to unwind; Decode discards the placeholder with the module.
func at[T any](d *decoder, table []*T, what string) *T {
	if i := d.idx(len(table), what); i >= 0 {
		return table[i]
	}
	return new(T)
}

// owned reads a function's params or locals, or a block's decls: variables
// of kind that belong to the function being decoded.
func (d *decoder) owned(kind VarKind, what string) []*Var {
	vs := make([]*Var, d.count(len(d.vars), what))
	for i := range vs {
		v := at(d, d.vars, what)
		if v.Kind != kind || v.Func != d.cur {
			d.fail("foreign %s %s", what, v.Name)
		}
		vs[i] = v
	}
	return vs
}

// claim resolves the region of a loop or branch statement s: it must be of
// kind, belong to the function being decoded, and have no other statement.
func (d *decoder) claim(kind RegionKind, s Stmt) *Region {
	r := at(d, d.regs, "statement region")
	if r.Kind != kind {
		d.fail("statement claims %s region %d as %s", r.Kind, r.ID, kind)
	} else if r.Stmt != nil {
		d.fail("region %d claimed by two statements", r.ID)
	} else if r.Func != d.cur {
		d.fail("statement claims region %d of another function", r.ID)
	}
	r.Stmt = s
	return r
}

// module decodes everything after the version. The three table loops stop
// at the first failure, so a hostile count costs no more than its slice.
func (d *decoder) module() {
	d.m = &Module{Name: d.str()}

	d.m.Files = make([]string, d.count(maxFiles, "file"))
	for i := range d.m.Files {
		d.m.Files[i] = d.str()
	}

	// Regions: structure first, function owners and statements wired later.
	nr := d.count(maxRegions, "region")
	d.regs = make([]*Region, nr)
	d.regFunc = make([]int, nr)
	for i := range d.regs {
		if d.err != nil {
			return
		}
		r := &Region{
			ID:    i,
			Kind:  RegionKind(d.enum(byte(RBranch), "region kind")),
			Start: d.loc(),
			End:   d.loc(),
		}
		if parent := d.optIdx(nr, "region parent"); parent >= i {
			d.fail("region %d references parent %d out of order", i, parent)
		} else if parent >= 0 {
			r.Parent = d.regs[parent]
			r.Parent.Children = append(r.Parent.Children, r)
		}
		d.regFunc[i] = d.optIdx(maxFuncs, "region func")
		d.regs[i] = r
	}
	d.m.Regions = d.regs

	// Function headers.
	nfn := d.count(maxFuncs, "func")
	d.funs = make([]*Func, nfn)
	funcRegions := make([]int, nfn)
	for i := range d.funs {
		if d.err != nil {
			return
		}
		d.funs[i] = &Func{
			ID:     i,
			Name:   d.str(),
			HasRet: d.bool(),
			RetTyp: Type(d.enum(byte(F64), "return type")),
			Loc:    d.loc(),
			EndLoc: d.loc(),
		}
		funcRegions[i] = d.idx(nr, "func region")
	}
	d.m.Funcs = d.funs
	if d.err != nil {
		return
	}

	// Wire regions to their owner functions, and functions to their body
	// regions, validating both directions.
	for i, r := range d.regs {
		if fi := d.regFunc[i]; fi >= nfn {
			d.fail("region %d references func %d of %d", i, fi, nfn)
		} else if fi >= 0 {
			r.Func = d.funs[fi]
		} else if r.Kind != RFunc {
			d.fail("region %d (%s) has no function", i, r.Kind)
		}
	}
	claimed := make([]bool, nr)
	for i, f := range d.funs {
		ri := funcRegions[i]
		r := d.regs[ri]
		if r.Kind != RFunc {
			d.fail("func %s claims non-function region %d", f.Name, ri)
		} else if claimed[ri] {
			d.fail("region %d claimed by two functions", ri)
		} else if r.Func != f {
			d.fail("func %s and region %d disagree on ownership", f.Name, ri)
		}
		claimed[ri] = true
		f.Region = r
	}
	for i, r := range d.regs {
		if r.Kind == RFunc && !claimed[i] {
			d.fail("orphan function region %d", i)
		}
	}

	// Variable table.
	nv := d.count(maxVars, "var")
	d.vars = make([]*Var, nv)
	var total uint64
	for i := range d.vars {
		if d.err != nil {
			return
		}
		v := &Var{ID: i, Name: d.str()}
		v.Kind = VarKind(d.enum(byte(KLocal), "var kind"))
		v.Type = Type(d.enum(byte(F64), "var type"))
		// Compare in uint64 before any signed cast: a wire value >= 2^63
		// would go negative as int64 and slip past both the per-var and
		// the running-total caps.
		elems := d.uint()
		if elems < 1 || elems > maxTotalElems {
			d.fail("var %s has %d elems", v.Name, elems)
		}
		// Each addend that passes is bounded by maxTotalElems and the sum
		// is checked every iteration, so total never exceeds
		// 2*maxTotalElems and cannot wrap a uint64 before the loop stops.
		if total += elems; total > maxTotalElems {
			d.fail("module footprint exceeds %d elements", maxTotalElems)
		}
		v.Elems = int(elems)
		v.ByValue = d.bool()
		v.Heap = d.bool()
		v.Decl = d.loc()
		if ri := d.optIdx(nr, "var region"); ri >= 0 {
			v.DeclRegion = d.regs[ri]
		}
		if fi := d.optIdx(nfn, "var func"); fi >= 0 {
			v.Func = d.funs[fi]
		}
		d.vars[i] = v
	}
	d.m.Vars = d.vars

	// Globals.
	d.m.Globals = make([]*Var, d.count(nv, "global"))
	for i := range d.m.Globals {
		g := at(d, d.vars, "global")
		if g.Kind != KGlobal {
			d.fail("global list names %s var %s", g.Kind, g.Name)
		}
		d.m.Globals[i] = g
	}

	d.m.Main = at(d, d.funs, "main func")

	// Function bodies.
	for _, f := range d.funs {
		if d.err != nil {
			return
		}
		d.cur = f
		f.Params = d.owned(KParam, "param")
		f.Locals = d.owned(KLocal, "local")
		f.Body = d.block(0)
		if d.err != nil {
			d.err = fmt.Errorf("%w (in func %s)", d.err, f.Name)
		}
	}

	if len(d.m.Main.Params) != 0 {
		d.fail("main function takes parameters")
	}
	// Every loop and branch region must have been claimed by exactly one
	// statement; claim enforces single claims, this catches orphans.
	for i, r := range d.regs {
		if r.Kind != RFunc && r.Stmt == nil {
			d.fail("%s region %d has no defining statement", r.Kind, i)
		}
	}
}

func (d *decoder) block(depth int) *BlockStmt {
	if !d.enter(depth, "statement") {
		return nil
	}
	b := &BlockStmt{Loc: d.loc()}
	b.Decls = d.owned(KLocal, "block decl")
	b.List = make([]Stmt, d.count(maxNodes-d.nodes+1, "block statement"))
	for i := range b.List {
		b.List[i] = d.stmt(depth + 1)
	}
	return b
}

func (d *decoder) stmt(depth int) Stmt {
	if !d.enter(depth, "statement") {
		return nil
	}
	tag, loc := d.byte(), d.loc()
	switch tag {
	case tsAssign:
		return &Assign{Loc: loc, Dst: d.ref(depth), Src: d.expr(depth)}
	case tsIf:
		n := &If{Loc: loc}
		n.Region = d.claim(RBranch, n)
		n.Cond = d.expr(depth)
		n.Then = d.block(depth)
		if d.bool() {
			n.Else = d.block(depth)
		}
		return n
	case tsFor:
		n := &For{Loc: loc, EndLoc: d.loc()}
		n.Region = d.claim(RLoop, n)
		n.IndVar = at(d, d.vars, "induction var")
		if n.IndVar.Func != d.cur {
			d.fail("loop claims foreign induction var %s", n.IndVar.Name)
		}
		n.From = d.expr(depth)
		n.To = d.expr(depth)
		n.Step = d.expr(depth)
		n.Body = d.block(depth)
		return n
	case tsWhile:
		n := &While{Loc: loc, EndLoc: d.loc()}
		n.Region = d.claim(RLoop, n)
		n.Cond = d.expr(depth)
		n.Body = d.block(depth)
		return n
	case tsCall:
		return &CallStmt{Loc: loc, Call: d.call(depth)}
	case tsReturn:
		n := &Return{Loc: loc}
		if d.bool() {
			n.Val = d.expr(depth)
		}
		return n
	case tsSpawn:
		return &Spawn{Loc: loc, Call: d.call(depth)}
	case tsSync:
		return &Sync{Loc: loc}
	case tsLock:
		id := d.uint()
		if id > maxMutexID {
			d.fail("mutex id %d out of range", id)
		}
		return &LockRegion{Loc: loc, MutexID: int(id), Body: d.block(depth)}
	case tsFree:
		return &Free{Loc: loc, Var: at(d, d.vars, "freed var")}
	}
	d.fail("unknown statement tag %d", tag)
	return nil
}

func (d *decoder) ref(depth int) *Ref {
	r := &Ref{Loc: d.loc(), Var: at(d, d.vars, "ref var")}
	if d.bool() {
		r.Index = d.expr(depth + 1)
	}
	return r
}

func (d *decoder) call(depth int) *CallExpr {
	c := &CallExpr{Loc: d.loc(), Callee: at(d, d.funs, "callee")}
	c.Args = make([]Expr, d.count(maxNodes-d.nodes+1, "call args"))
	for i := range c.Args {
		c.Args[i] = d.expr(depth + 1)
	}
	return c
}

func (d *decoder) expr(depth int) Expr {
	if !d.enter(depth, "expression") {
		return nil
	}
	switch tag := d.byte(); tag {
	case teConst:
		return &Const{
			Loc: d.loc(),
			Typ: Type(d.enum(byte(F64), "const type")),
			Val: d.f64(),
		}
	case teRef:
		return d.ref(depth)
	case teBin:
		return &Bin{
			Loc: d.loc(),
			Op:  BinOp(d.enum(byte(OpMax), "binary op")),
			L:   d.expr(depth + 1),
			R:   d.expr(depth + 1),
		}
	case teUn:
		return &Un{
			Loc: d.loc(),
			Op:  UnOp(d.enum(byte(OpFloor), "unary op")),
			X:   d.expr(depth + 1),
		}
	case teRand:
		return &Rand{Loc: d.loc()}
	case teCall:
		return d.call(depth)
	default:
		d.fail("unknown expression tag %d", tag)
		return nil
	}
}
