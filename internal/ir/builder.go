package ir

import "fmt"

// Builder constructs a Module. It assigns monotonically increasing source
// lines to emitted statements so that profiled dependences refer to
// realistic, distinct <fileID:lineID> locations, and it maintains the region
// tree as control constructs are opened and closed.
type Builder struct {
	m        *Module
	file     int32
	lines    map[int32]int32 // next free line per file
	nextVar  int
	nextReg  int
	nextFunc int
}

// NewBuilder returns a Builder for a module with the given name. The module
// starts with a single source file (fileID 1) named after the module.
func NewBuilder(name string) *Builder {
	b := &Builder{
		m:     &Module{Name: name, Files: []string{"", name + ".c"}},
		file:  1,
		lines: map[int32]int32{1: 1},
	}
	return b
}

// File adds a new source file to the module and makes it current. Subsequent
// statements are attributed to it. Returns the file ID.
func (b *Builder) File(name string) int32 {
	b.m.Files = append(b.m.Files, name)
	b.file = int32(len(b.m.Files) - 1)
	if _, ok := b.lines[b.file]; !ok {
		b.lines[b.file] = 1
	}
	return b.file
}

func (b *Builder) nextLoc() Loc {
	l := Loc{File: b.file, Line: b.lines[b.file]}
	b.lines[b.file]++
	return l
}

func (b *Builder) newVar(name string, kind VarKind, t Type, elems int, loc Loc) *Var {
	v := &Var{ID: b.nextVar, Name: name, Kind: kind, Type: t, Elems: elems, Decl: loc}
	b.nextVar++
	b.m.Vars = append(b.m.Vars, v)
	return v
}

// Global declares a module-level scalar variable.
func (b *Builder) Global(name string, t Type) *Var {
	v := b.newVar(name, KGlobal, t, 1, b.nextLoc())
	b.m.Globals = append(b.m.Globals, v)
	return v
}

// GlobalArray declares a module-level array of elems scalars.
func (b *Builder) GlobalArray(name string, t Type, elems int) *Var {
	v := b.newVar(name, KGlobal, t, elems, b.nextLoc())
	b.m.Globals = append(b.m.Globals, v)
	return v
}

// Forward declares a function so that it can be called before being defined
// (mutual recursion). Define it later with DefineForward.
func (b *Builder) Forward(name string, hasRet bool) *Func {
	f := &Func{ID: b.nextFunc, Name: name, HasRet: hasRet, RetTyp: F64}
	b.nextFunc++
	b.m.Funcs = append(b.m.Funcs, f)
	return f
}

// Func opens a new function definition.
func (b *Builder) Func(name string) *FuncBuilder {
	return b.DefineForward(b.Forward(name, false))
}

// FuncRet opens a new function definition that returns a value.
func (b *Builder) FuncRet(name string) *FuncBuilder {
	return b.DefineForward(b.Forward(name, true))
}

// DefineForward opens the body of a previously forward-declared function.
func (b *Builder) DefineForward(f *Func) *FuncBuilder {
	loc := b.nextLoc()
	f.Loc = loc
	reg := &Region{ID: b.nextReg, Kind: RFunc, Start: loc, Func: f}
	b.nextReg++
	b.m.Regions = append(b.m.Regions, reg)
	f.Region = reg
	body := &BlockStmt{Loc: loc}
	f.Body = body
	fb := &FuncBuilder{b: b, f: f}
	fb.blocks = []*BlockStmt{body}
	fb.regions = []*Region{reg}
	return fb
}

// Build finalizes the module with main as the entry function.
func (b *Builder) Build(main *Func) *Module {
	b.m.Main = main
	return b.m
}

// FuncBuilder emits statements into a function body. Control constructs
// take closures that populate the nested block.
type FuncBuilder struct {
	b       *Builder
	f       *Func
	blocks  []*BlockStmt
	regions []*Region
}

// F returns the function being built (usable for recursive calls).
func (fb *FuncBuilder) F() *Func { return fb.f }

func (fb *FuncBuilder) cur() *BlockStmt    { return fb.blocks[len(fb.blocks)-1] }
func (fb *FuncBuilder) curRegion() *Region { return fb.regions[len(fb.regions)-1] }

func (fb *FuncBuilder) emit(s Stmt) { fb.cur().List = append(fb.cur().List, s) }

func (fb *FuncBuilder) pushRegion(kind RegionKind, loc Loc, s Stmt) *Region {
	parent := fb.curRegion()
	reg := &Region{ID: fb.b.nextReg, Kind: kind, Start: loc, Parent: parent, Func: fb.f, Stmt: s}
	fb.b.nextReg++
	fb.b.m.Regions = append(fb.b.m.Regions, reg)
	parent.Children = append(parent.Children, reg)
	fb.regions = append(fb.regions, reg)
	return reg
}

func (fb *FuncBuilder) popRegion(end Loc) {
	fb.curRegion().End = end
	fb.regions = fb.regions[:len(fb.regions)-1]
}

// Param declares a by-value scalar parameter.
func (fb *FuncBuilder) Param(name string, t Type) *Var {
	v := fb.b.newVar(name, KParam, t, 1, fb.f.Loc)
	v.ByValue = true
	v.Func = fb.f
	v.DeclRegion = fb.f.Region
	fb.f.Params = append(fb.f.Params, v)
	return v
}

// RefParam declares a by-reference parameter aliasing elems scalars of the
// caller's argument (the way arrays are passed in C).
func (fb *FuncBuilder) RefParam(name string, t Type, elems int) *Var {
	v := fb.b.newVar(name, KParam, t, elems, fb.f.Loc)
	v.ByValue = false
	v.Func = fb.f
	v.DeclRegion = fb.f.Region
	fb.f.Params = append(fb.f.Params, v)
	return v
}

func (fb *FuncBuilder) declare(name string, t Type, elems int, heap bool) *Var {
	loc := fb.b.nextLoc()
	v := fb.b.newVar(name, KLocal, t, elems, loc)
	v.Heap = heap
	v.Func = fb.f
	v.DeclRegion = fb.curRegion()
	fb.cur().Decls = append(fb.cur().Decls, v)
	fb.f.Locals = append(fb.f.Locals, v)
	return v
}

// Local declares a scalar local variable in the current block.
func (fb *FuncBuilder) Local(name string, t Type) *Var {
	return fb.declare(name, t, 1, false)
}

// Array declares a stack array local to the current block.
func (fb *FuncBuilder) Array(name string, t Type, elems int) *Var {
	return fb.declare(name, t, elems, false)
}

// HeapArray declares a heap array (malloc-like); it may be freed explicitly
// with Free, exercising the variable lifetime analysis.
func (fb *FuncBuilder) HeapArray(name string, t Type, elems int) *Var {
	return fb.declare(name, t, elems, true)
}

// Assign emits dst = src.
func (fb *FuncBuilder) Assign(dst *Ref, src Expr) {
	loc := fb.b.nextLoc()
	fb.emit(&Assign{Loc: loc, Dst: dst, Src: src})
}

// Set emits scalar assignment v = src.
func (fb *FuncBuilder) Set(v *Var, src Expr) { fb.Assign(&Ref{Var: v}, src) }

// SetAt emits array assignment v[idx] = src.
func (fb *FuncBuilder) SetAt(v *Var, idx Expr, src Expr) {
	fb.Assign(&Ref{Var: v, Index: idx}, src)
}

// For emits a counted loop "for name = from; name < to; name += step" and
// runs body to populate it. The iteration variable is passed to body.
func (fb *FuncBuilder) For(name string, from, to, step Expr, body func(i *Var)) *Region {
	loc := fb.b.nextLoc()
	iv := fb.b.newVar(name, KLocal, I64, 1, loc)
	iv.Func = fb.f
	n := &For{Loc: loc, IndVar: iv, From: from, To: to, Step: step,
		Body: &BlockStmt{Loc: loc}}
	reg := fb.pushRegion(RLoop, loc, n)
	n.Region = reg
	iv.DeclRegion = reg
	fb.f.Locals = append(fb.f.Locals, iv)
	fb.emit(n)
	fb.blocks = append(fb.blocks, n.Body)
	body(iv)
	fb.blocks = fb.blocks[:len(fb.blocks)-1]
	end := fb.b.nextLoc()
	n.EndLoc = end
	fb.popRegion(end)
	return reg
}

// While emits a condition-controlled loop.
func (fb *FuncBuilder) While(cond Expr, body func()) *Region {
	loc := fb.b.nextLoc()
	n := &While{Loc: loc, Cond: cond, Body: &BlockStmt{Loc: loc}}
	reg := fb.pushRegion(RLoop, loc, n)
	n.Region = reg
	fb.emit(n)
	fb.blocks = append(fb.blocks, n.Body)
	body()
	fb.blocks = fb.blocks[:len(fb.blocks)-1]
	end := fb.b.nextLoc()
	n.EndLoc = end
	fb.popRegion(end)
	return reg
}

// If emits a one-armed branch.
func (fb *FuncBuilder) If(cond Expr, then func()) { fb.IfElse(cond, then, nil) }

// IfElse emits a two-armed branch. els may be nil.
func (fb *FuncBuilder) IfElse(cond Expr, then, els func()) {
	loc := fb.b.nextLoc()
	n := &If{Loc: loc, Cond: cond, Then: &BlockStmt{Loc: loc}}
	reg := fb.pushRegion(RBranch, loc, n)
	n.Region = reg
	fb.emit(n)
	fb.blocks = append(fb.blocks, n.Then)
	then()
	fb.blocks = fb.blocks[:len(fb.blocks)-1]
	if els != nil {
		n.Else = &BlockStmt{Loc: fb.b.nextLoc()}
		fb.blocks = append(fb.blocks, n.Else)
		els()
		fb.blocks = fb.blocks[:len(fb.blocks)-1]
	}
	fb.popRegion(fb.b.nextLoc())
}

// Call emits a call for effect.
func (fb *FuncBuilder) Call(f *Func, args ...Expr) {
	loc := fb.b.nextLoc()
	fb.emit(&CallStmt{Loc: loc, Call: &CallExpr{Loc: loc, Callee: f, Args: args}})
}

// CallInto emits dst = f(args...).
func (fb *FuncBuilder) CallInto(dst *Ref, f *Func, args ...Expr) {
	if !f.HasRet {
		panic(fmt.Sprintf("ir: function %s has no return value", f.Name))
	}
	loc := fb.b.nextLoc()
	fb.emit(&Assign{Loc: loc, Dst: dst, Src: &CallExpr{Loc: loc, Callee: f, Args: args}})
}

// Return emits a return statement. val may be nil.
func (fb *FuncBuilder) Return(val Expr) {
	fb.emit(&Return{Loc: fb.b.nextLoc(), Val: val})
}

// Spawn emits a simulated thread creation running f(args...).
func (fb *FuncBuilder) Spawn(f *Func, args ...Expr) {
	loc := fb.b.nextLoc()
	fb.emit(&Spawn{Loc: loc, Call: &CallExpr{Loc: loc, Callee: f, Args: args}})
}

// Sync emits a join of all threads spawned by the current thread.
func (fb *FuncBuilder) Sync() { fb.emit(&Sync{Loc: fb.b.nextLoc()}) }

// Locked emits a critical section protected by mutex id.
func (fb *FuncBuilder) Locked(id int, body func()) {
	loc := fb.b.nextLoc()
	n := &LockRegion{Loc: loc, MutexID: id, Body: &BlockStmt{Loc: loc}}
	fb.emit(n)
	fb.blocks = append(fb.blocks, n.Body)
	body()
	fb.blocks = fb.blocks[:len(fb.blocks)-1]
}

// Free emits an explicit deallocation of a heap variable.
func (fb *FuncBuilder) Free(v *Var) {
	fb.emit(&Free{Loc: fb.b.nextLoc(), Var: v})
}

// Done closes the function body and returns the finished function.
func (fb *FuncBuilder) Done() *Func {
	end := fb.b.nextLoc()
	fb.f.EndLoc = end
	fb.f.Region.End = end
	return fb.f
}

// ---------------------------------------------------------------------------
// Expression constructors. Expressions inherit the location of the statement
// that contains them; dependences are aggregated per source line, as in the
// paper, so expression-level locations are unnecessary.

// V reads scalar variable v.
func V(v *Var) *Ref { return &Ref{Var: v} }

// At reads array element v[idx].
func At(v *Var, idx Expr) *Ref { return &Ref{Var: v, Index: idx} }

// CI is an integer constant.
func CI(v int64) *Const { return &Const{Val: float64(v), Typ: I64} }

// CF is a floating-point constant.
func CF(v float64) *Const { return &Const{Val: v, Typ: F64} }

func bin(op BinOp, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// Add returns l + r.
func Add(l, r Expr) *Bin { return bin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) *Bin { return bin(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) *Bin { return bin(OpMul, l, r) }

// Div returns l / r.
func Div(l, r Expr) *Bin { return bin(OpDiv, l, r) }

// Mod returns l % r on int64-converted operands.
func Mod(l, r Expr) *Bin { return bin(OpMod, l, r) }

// Xor returns l ^ r on int64-converted operands.
func Xor(l, r Expr) *Bin { return bin(OpXor, l, r) }

// AndB returns l & r on int64-converted operands.
func AndB(l, r Expr) *Bin { return bin(OpAnd, l, r) }

// OrB returns l | r on int64-converted operands.
func OrB(l, r Expr) *Bin { return bin(OpOr, l, r) }

// Shl returns l << r on int64-converted operands.
func Shl(l, r Expr) *Bin { return bin(OpShl, l, r) }

// Shr returns l >> r on int64-converted operands.
func Shr(l, r Expr) *Bin { return bin(OpShr, l, r) }

// Lt returns l < r (1 or 0).
func Lt(l, r Expr) *Bin { return bin(OpLt, l, r) }

// Le returns l <= r (1 or 0).
func Le(l, r Expr) *Bin { return bin(OpLe, l, r) }

// Gt returns l > r (1 or 0).
func Gt(l, r Expr) *Bin { return bin(OpGt, l, r) }

// Ge returns l >= r (1 or 0).
func Ge(l, r Expr) *Bin { return bin(OpGe, l, r) }

// Eq returns l == r (1 or 0).
func Eq(l, r Expr) *Bin { return bin(OpEq, l, r) }

// Ne returns l != r (1 or 0).
func Ne(l, r Expr) *Bin { return bin(OpNe, l, r) }

// LAnd returns l && r (1 or 0).
func LAnd(l, r Expr) *Bin { return bin(OpLAnd, l, r) }

// Min returns min(l, r).
func Min(l, r Expr) *Bin { return bin(OpMin, l, r) }

// Max returns max(l, r).
func Max(l, r Expr) *Bin { return bin(OpMax, l, r) }

// Neg returns -x.
func Neg(x Expr) *Un { return &Un{Op: OpNeg, X: x} }

// Sqrt returns sqrt(x).
func Sqrt(x Expr) *Un { return &Un{Op: OpSqrt, X: x} }

// Sin returns sin(x).
func Sin(x Expr) *Un { return &Un{Op: OpSin, X: x} }

// Cos returns cos(x).
func Cos(x Expr) *Un { return &Un{Op: OpCos, X: x} }

// Exp returns e**x.
func Exp(x Expr) *Un { return &Un{Op: OpExp, X: x} }

// Log returns ln(x).
func Log(x Expr) *Un { return &Un{Op: OpLog, X: x} }

// Abs returns |x|.
func Abs(x Expr) *Un { return &Un{Op: OpAbs, X: x} }

// Floor returns floor(x).
func Floor(x Expr) *Un { return &Un{Op: OpFloor, X: x} }

// Rnd returns a pseudo-random value in [0,1).
func Rnd() *Rand { return &Rand{} }

// CallV returns the expression f(args...), usable inside larger expressions.
func CallV(f *Func, args ...Expr) *CallExpr {
	return &CallExpr{Callee: f, Args: args}
}
