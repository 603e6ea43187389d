package ir

// This file defines the statement and expression nodes of the IR. Every node
// carries a Loc so that profiled events map back to <fileID:lineID> pairs
// exactly as in the paper's dependence representation.

// Expr is an expression node.
type Expr interface {
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Location() Loc
	stmtNode()
}

// ---------------------------------------------------------------------------
// Expressions

// Const is a numeric literal.
type Const struct {
	Loc Loc
	Val float64
	Typ Type
}

// Ref reads a variable: a scalar (Index == nil) or one array element.
// Expression nodes must not be shared between statements: the interpreter
// assigns each Ref a static memory-operation ID (Op), the accessInfo
// identity of Section 2.4, and sharing would merge distinct operations.
type Ref struct {
	Loc   Loc
	Var   *Var
	Index Expr // nil for scalar access
	Op    int32
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Comparison operators yield 0 or 1.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd // bitwise, on int64-converted operands
	OpOr
	OpXor
	OpShl
	OpShr
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpLAnd // logical
	OpLOr
	OpMin
	OpMax
)

var binNames = [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"<", "<=", ">", ">=", "==", "!=", "&&", "||", "min", "max"}

func (op BinOp) String() string { return binNames[op] }

// Commutative reports whether op is commutative and associative, the
// condition for reduction recognition (Section 4.1.1).
func (op BinOp) Commutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax:
		return true
	}
	return false
}

// Bin is a binary expression.
type Bin struct {
	Loc  Loc
	Op   BinOp
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNeg UnOp = iota
	OpNot
	OpSqrt
	OpSin
	OpCos
	OpExp
	OpLog
	OpAbs
	OpFloor
)

var unNames = [...]string{"-", "!", "sqrt", "sin", "cos", "exp", "log", "abs", "floor"}

func (op UnOp) String() string { return unNames[op] }

// Un is a unary expression.
type Un struct {
	Loc Loc
	Op  UnOp
	X   Expr
}

// Rand is a deterministic pseudo-random source (the interpreter seeds one
// linear-congruential stream per execution), standing in for rand()/randlc()
// calls in the benchmarks.
type Rand struct {
	Loc Loc
}

// CallExpr calls a function that returns a value. The callee's return value
// is materialized in the virtual variable "ret" (Section 3.2.5).
type CallExpr struct {
	Loc    Loc
	Callee *Func
	Args   []Expr
}

func (*Const) exprNode()    {}
func (*Ref) exprNode()      {}
func (*Bin) exprNode()      {}
func (*Un) exprNode()       {}
func (*Rand) exprNode()     {}
func (*CallExpr) exprNode() {}

// ---------------------------------------------------------------------------
// Statements

// Assign stores the value of Src into Dst.
type Assign struct {
	Loc Loc
	Dst *Ref
	Src Expr
}

// BlockStmt is a sequence of statements with its own variable declarations.
type BlockStmt struct {
	Loc   Loc
	List  []Stmt
	Decls []*Var
}

// If is a two-way branch. Else may be nil.
type If struct {
	Loc    Loc
	Cond   Expr
	Then   *BlockStmt
	Else   *BlockStmt
	Region *Region
}

// For is a counted loop: for iv = From; iv < To; iv += Step. The iteration
// variable receives the special treatment of Section 3.2.5.
type For struct {
	Loc    Loc
	EndLoc Loc
	IndVar *Var
	From   Expr
	To     Expr
	Step   Expr
	Body   *BlockStmt
	Region *Region
}

// While is a condition-controlled loop.
type While struct {
	Loc    Loc
	EndLoc Loc
	Cond   Expr
	Body   *BlockStmt
	Region *Region
}

// CallStmt calls a function for effect; any return value is discarded.
type CallStmt struct {
	Loc  Loc
	Call *CallExpr
}

// Return returns from the enclosing function. Val may be nil.
type Return struct {
	Loc Loc
	Val Expr
}

// Spawn starts a simulated thread executing Call. Used by the multi-threaded
// target programs of Section 2.3.4.
type Spawn struct {
	Loc  Loc
	Call *CallExpr
}

// Sync joins every thread spawned so far by the current thread.
type Sync struct {
	Loc Loc
}

// LockRegion executes Body while holding simulated mutex MutexID. Explicit
// locking is the synchronization discipline the profiler requires of
// multi-threaded targets (Figure 2.4c).
type LockRegion struct {
	Loc     Loc
	MutexID int
	Body    *BlockStmt
}

// Free deallocates a heap variable, driving the variable lifetime analysis
// of Section 2.3.5.
type Free struct {
	Loc Loc
	Var *Var
}

func (*Assign) stmtNode()     {}
func (*BlockStmt) stmtNode()  {}
func (*If) stmtNode()         {}
func (*For) stmtNode()        {}
func (*While) stmtNode()      {}
func (*CallStmt) stmtNode()   {}
func (*Return) stmtNode()     {}
func (*Spawn) stmtNode()      {}
func (*Sync) stmtNode()       {}
func (*LockRegion) stmtNode() {}
func (*Free) stmtNode()       {}

// Location implements Stmt.
func (s *Assign) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *BlockStmt) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *If) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *For) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *While) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *CallStmt) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *Return) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *Spawn) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *Sync) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *LockRegion) Location() Loc { return s.Loc }

// Location implements Stmt.
func (s *Free) Location() Loc { return s.Loc }

// Walk applies fn to every statement in the subtree rooted at s, in program
// order, including s itself.
func Walk(s Stmt, fn func(Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch n := s.(type) {
	case *BlockStmt:
		for _, c := range n.List {
			Walk(c, fn)
		}
	case *If:
		Walk(n.Then, fn)
		if n.Else != nil {
			Walk(n.Else, fn)
		}
	case *For:
		Walk(n.Body, fn)
	case *While:
		Walk(n.Body, fn)
	case *LockRegion:
		Walk(n.Body, fn)
	}
}

// WalkExprs applies fn to every expression in the subtree rooted at e,
// including e itself.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *Bin:
		WalkExprs(n.L, fn)
		WalkExprs(n.R, fn)
	case *Un:
		WalkExprs(n.X, fn)
	case *Ref:
		WalkExprs(n.Index, fn)
	case *CallExpr:
		for _, a := range n.Args {
			WalkExprs(a, fn)
		}
	}
}

// StmtExprs applies fn to every top-level expression of statement s (not
// recursing into nested statements).
func StmtExprs(s Stmt, fn func(Expr)) {
	switch n := s.(type) {
	case *Assign:
		fn(n.Src)
		if n.Dst.Index != nil {
			fn(n.Dst.Index)
		}
	case *If:
		fn(n.Cond)
	case *For:
		fn(n.From)
		fn(n.To)
		fn(n.Step)
	case *While:
		fn(n.Cond)
	case *CallStmt:
		for _, a := range n.Call.Args {
			fn(a)
		}
	case *Spawn:
		for _, a := range n.Call.Args {
			fn(a)
		}
	case *Return:
		if n.Val != nil {
			fn(n.Val)
		}
	}
}
