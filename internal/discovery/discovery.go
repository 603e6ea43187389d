// Package discovery implements the CU-based parallelism discovery
// algorithms of Chapter 4: DOALL and DOACROSS loops (Section 4.1),
// reduction recognition, and SPMD- and MPMD-style tasks (Section 4.2),
// producing ranked parallelization suggestions.
package discovery

import (
	"fmt"
	"sort"

	"discopop/internal/cu"
	"discopop/internal/graph"
	"discopop/internal/ir"
	"discopop/internal/profiler"
)

// Kind classifies a parallelization suggestion.
type Kind uint8

// Suggestion kinds.
const (
	// DOALL marks a loop with no loop-carried true dependences: iterations
	// can execute fully in parallel (Section 4.1.1).
	DOALL Kind = iota
	// DOALLReduction marks a DOALL loop whose only carried true
	// dependences are commutative reductions.
	DOALLReduction
	// DOACROSS marks a loop whose carried dependences confine a part of
	// the body: iterations can overlap in a pipeline (Section 4.1.2).
	DOACROSS
	// SPMDTask marks a loop or recursion whose body instances are
	// independent heavyweight computations suitable for task spawning
	// (Section 4.2.1).
	SPMDTask
	// MPMDTask marks a set of different code sections (CU chains) that can
	// run concurrently (Section 4.2.2).
	MPMDTask
	// Sequential marks an analyzed loop that offers no parallelism.
	Sequential
)

func (k Kind) String() string {
	switch k {
	case DOALL:
		return "DOALL"
	case DOALLReduction:
		return "DOALL(reduction)"
	case DOACROSS:
		return "DOACROSS"
	case SPMDTask:
		return "SPMD-task"
	case MPMDTask:
		return "MPMD-task"
	default:
		return "sequential"
	}
}

// ParseKind inverts Kind.String, for reports that cross a serialization
// boundary (the remote-stage wire format). The second result is false for
// unrecognized strings.
func ParseKind(s string) (Kind, bool) {
	for k := DOALL; k <= Sequential; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Suggestion is one parallelization opportunity.
type Suggestion struct {
	Kind   Kind
	Region *ir.Region // the loop, for loop suggestions
	Func   *ir.Func   // the host function, for task suggestions
	Loc    ir.Loc

	// Reductions lists recognized reduction variables (DOALLReduction).
	Reductions []*ir.Var
	// Blocking lists the carried RAW dependences that prevent DOALL.
	Blocking []profiler.Dep
	// SeqStage/ParStage partition the loop body CUs for DOACROSS.
	SeqStage []*cu.CU
	ParStage []*cu.CU
	// Tasks groups CUs into concurrently runnable tasks (SPMD/MPMD).
	Tasks [][]*cu.CU

	// Metrics (filled by the rank package).
	Coverage     float64
	LocalSpeedup float64
	Imbalance    float64
	Score        float64

	// Iters is the profiled trip count for loop suggestions.
	Iters int64
	// Weight is the dynamic work estimate of the construct.
	Weight float64
	// Notes is a human-readable explanation.
	Notes string
}

func (s *Suggestion) String() string {
	return fmt.Sprintf("%s at %s (%s)", s.Kind, s.Loc, s.Notes)
}

// Analysis is the result of running all discovery algorithms.
type Analysis struct {
	Mod         *ir.Module
	Scope       *ir.Scope
	Res         *profiler.Result
	Graph       *cu.Graph
	Suggestions []*Suggestion
}

// Analyze runs loop and task discovery over a profiled module.
func Analyze(m *ir.Module, sc *ir.Scope, res *profiler.Result, g *cu.Graph) *Analysis {
	a := &Analysis{Mod: m, Scope: sc, Res: res, Graph: g}
	a.analyzeLoops()
	a.analyzeMPMD()
	return a
}

// Reduction describes a recognized reduction statement: v = v op expr with
// a commutative, associative op (Section 4.1.1 resolves such dependences
// automatically, like the compiler's reduction support).
type Reduction struct {
	Var *ir.Var
	Loc ir.Loc
	Op  ir.BinOp
}

// FindReductions statically recognizes reduction statements within the
// body of region r.
func FindReductions(sc *ir.Scope, r *ir.Region) []Reduction {
	rs := sc.Of(r)
	gv := map[*ir.Var]bool{}
	for _, v := range rs.GlobalVars {
		gv[v] = true
	}
	var out []Reduction
	var scan func(s ir.Stmt)
	scan = func(s ir.Stmt) {
		a, ok := s.(*ir.Assign)
		if !ok {
			return
		}
		v := a.Dst.Var
		if !gv[v] {
			return
		}
		bin, ok := a.Src.(*ir.Bin)
		if !ok || !bin.Op.Commutative() {
			return
		}
		// One operand must be exactly the destination (same variable AND
		// syntactically identical index), and the other operand must not
		// touch v at all — otherwise the statement is a recurrence like
		// a[i] = a[i] + a[i-1], which is NOT a reduction.
		sameElem := func(e ir.Expr) bool {
			ref, ok := e.(*ir.Ref)
			return ok && ref.Var == v && exprEqual(ref.Index, a.Dst.Index)
		}
		touches := func(e ir.Expr) bool {
			found := false
			ir.WalkExprs(e, func(x ir.Expr) {
				if ref, ok := x.(*ir.Ref); ok && ref.Var == v {
					found = true
				}
			})
			return found
		}
		if (sameElem(bin.L) && !touches(bin.R)) || (sameElem(bin.R) && !touches(bin.L)) {
			out = append(out, Reduction{Var: v, Loc: a.Loc, Op: bin.Op})
		}
	}
	ir.Walk(regionStmt(r), scan)
	return out
}

// exprEqual reports structural equality of two expressions.
func exprEqual(a, b ir.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *ir.Const:
		y, ok := b.(*ir.Const)
		return ok && x.Val == y.Val
	case *ir.Ref:
		y, ok := b.(*ir.Ref)
		return ok && x.Var == y.Var && exprEqual(x.Index, y.Index)
	case *ir.Bin:
		y, ok := b.(*ir.Bin)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *ir.Un:
		y, ok := b.(*ir.Un)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *ir.Rand:
		_, ok := b.(*ir.Rand)
		return ok
	}
	return false
}

func regionStmt(r *ir.Region) ir.Stmt {
	switch n := r.Stmt.(type) {
	case *ir.For:
		return n.Body
	case *ir.While:
		return n.Body
	case *ir.If:
		b := &ir.BlockStmt{List: []ir.Stmt{n.Then}}
		if n.Else != nil {
			b.List = append(b.List, n.Else)
		}
		return b
	case nil:
		return r.Func.Body
	}
	return nil
}

// analyzeLoops classifies every executed loop.
func (a *Analysis) analyzeLoops() {
	for _, r := range a.Mod.Regions {
		if r.Kind != ir.RLoop {
			continue
		}
		re := a.Res.Regions[r.ID]
		if re == nil || re.Iters == 0 {
			continue
		}
		a.Suggestions = append(a.Suggestions, a.classifyLoop(r, re))
	}
}

// classifyLoop implements the DOALL/DOACROSS decision of Section 4.1.
func (a *Analysis) classifyLoop(r *ir.Region, re *profiler.RegionExec) *Suggestion {
	s := &Suggestion{Region: r, Loc: r.Start, Iters: re.Iters, Weight: float64(re.Instrs)}
	rs := a.Scope.Of(r)
	reds := FindReductions(a.Scope, r)
	redLines := map[ir.Loc]*ir.Var{}
	for _, red := range reds {
		redLines[red.Loc] = red.Var
	}
	var indVar *ir.Var
	if f, ok := r.Stmt.(*ir.For); ok && !rs.IndVarWritten {
		indVar = f.IndVar
	}
	redVars := map[*ir.Var]bool{}
	for d := range a.Res.Deps {
		if d.Type != profiler.RAW || !d.Carried || d.CarriedBy != int32(r.ID) {
			continue
		}
		// Rule 1 (Section 3.2.5): dependences on the loop's own iteration
		// variable in the header do not prevent parallelism unless the
		// variable is written in the body.
		if indVar != nil && int(d.Var) == indVar.ID {
			continue
		}
		// Inner loops' iteration variables reinitialized every iteration
		// are likewise private to their loops.
		if v := a.varByID(d.Var); v != nil && isInnerIndVar(a.Scope, r, v) {
			continue
		}
		// Rule 2: a self-dependence on a recognized reduction line is
		// resolvable by reduction parallelization.
		if v, ok := redLines[d.Sink]; ok && int(d.Var) == v.ID && d.Sink == d.Source {
			redVars[v] = true
			continue
		}
		s.Blocking = append(s.Blocking, d)
	}
	for v := range redVars {
		s.Reductions = append(s.Reductions, v)
	}
	sort.Slice(s.Reductions, func(i, j int) bool { return s.Reductions[i].ID < s.Reductions[j].ID })
	sortDeps(s.Blocking)

	if len(s.Blocking) == 0 {
		if len(s.Reductions) > 0 {
			s.Kind = DOALLReduction
			s.Notes = fmt.Sprintf("parallelizable with reduction on %s", varNames(s.Reductions))
		} else {
			s.Kind = DOALL
			s.Notes = "no loop-carried true dependences"
		}
		if a.bodyCalls(r) {
			// A DOALL loop spawning heavyweight calls per iteration is the
			// SPMD task pattern of nqueens (Figure 4.2).
			s.Tasks = a.bodyTaskGroups(r)
			if len(s.Tasks) >= 1 {
				s.Kind = SPMDTask
				s.Notes = "independent iterations containing calls: spawn one task per iteration"
			}
		}
		return s
	}
	// DOACROSS check (Section 4.1.2): do the carried dependences confine
	// only part of the body's CUs? The body includes the CUs of functions
	// called from within the loop, the way the PET's hierarchy lets
	// dependences between whole callees be examined.
	blocked := map[*cu.CU]bool{}
	for _, d := range s.Blocking {
		if c := a.Graph.CUAt(d.Sink); c != nil {
			blocked[c] = true
		}
		if c := a.Graph.CUAt(d.Source); c != nil {
			blocked[c] = true
		}
	}
	callees := a.calleesOf(r)
	var seqW, parW float64
	for _, c := range a.Graph.CUs {
		inBody := c.Region != nil && r.Encloses(c.Region)
		if !inBody && c.Func != nil && callees[c.Func] {
			inBody = true
		}
		if !inBody {
			continue
		}
		if blocked[c] {
			s.SeqStage = append(s.SeqStage, c)
			seqW += c.Weight
		} else {
			s.ParStage = append(s.ParStage, c)
			parW += c.Weight
		}
	}
	if len(s.ParStage) > 0 && parW > 0.1*(parW+seqW) {
		s.Kind = DOACROSS
		s.Notes = fmt.Sprintf("carried dependences confined to %d of %d CUs; pipeline iterations",
			len(s.SeqStage), len(s.SeqStage)+len(s.ParStage))
	} else {
		s.Kind = Sequential
		s.Notes = fmt.Sprintf("%d loop-carried true dependences across the body", len(s.Blocking))
	}
	return s
}

// calleesOf returns the set of functions transitively callable from the
// body of region r (excluding r's own function).
func (a *Analysis) calleesOf(r *ir.Region) map[*ir.Func]bool {
	out := map[*ir.Func]bool{}
	var visitFunc func(f *ir.Func)
	collect := func(s ir.Stmt) {
		handle := func(c *ir.CallExpr) {
			if c.Callee != r.Func && !out[c.Callee] {
				out[c.Callee] = true
				visitFunc(c.Callee)
			}
		}
		switch n := s.(type) {
		case *ir.CallStmt:
			handle(n.Call)
		case *ir.Spawn:
			handle(n.Call)
		case *ir.Assign:
			ir.WalkExprs(n.Src, func(e ir.Expr) {
				if c, ok := e.(*ir.CallExpr); ok {
					handle(c)
				}
			})
		}
	}
	visitFunc = func(f *ir.Func) {
		if f.Body == nil {
			return
		}
		ir.Walk(f.Body, collect)
	}
	ir.Walk(regionStmt(r), collect)
	return out
}

func (a *Analysis) varByID(id int32) *ir.Var {
	if id < 0 || int(id) >= len(a.Mod.Vars) {
		return nil
	}
	return a.Mod.Vars[id]
}

// isInnerIndVar reports whether v is the (unwritten) iteration variable of
// a loop nested inside r.
func isInnerIndVar(sc *ir.Scope, r *ir.Region, v *ir.Var) bool {
	if v.DeclRegion == nil || v.DeclRegion.Kind != ir.RLoop || v.DeclRegion == r {
		return false
	}
	f, ok := v.DeclRegion.Stmt.(*ir.For)
	if !ok || f.IndVar != v {
		return false
	}
	return r.Encloses(v.DeclRegion) && !sc.Of(v.DeclRegion).IndVarWritten
}

// bodyCalls reports whether the loop body contains function calls.
func (a *Analysis) bodyCalls(r *ir.Region) bool {
	found := false
	ir.Walk(regionStmt(r), func(s ir.Stmt) {
		switch n := s.(type) {
		case *ir.CallStmt:
			found = true
		case *ir.Assign:
			ir.WalkExprs(n.Src, func(e ir.Expr) {
				if _, ok := e.(*ir.CallExpr); ok {
					found = true
				}
			})
		}
	})
	return found
}

// bodyTaskGroups groups the loop body's CUs into independent task groups
// (weakly connected components over non-carried edges).
func (a *Analysis) bodyTaskGroups(r *ir.Region) [][]*cu.CU {
	var cus []*cu.CU
	idx := map[*cu.CU]int{}
	for _, c := range a.Graph.CUs {
		if c.Region != nil && r.Encloses(c.Region) && c.Region != r.Parent {
			idx[c] = len(cus)
			cus = append(cus, c)
		}
	}
	if len(cus) == 0 {
		return nil
	}
	g := graph.New(len(cus))
	for _, e := range a.Graph.Edges {
		if e.Carried {
			continue
		}
		fi, ok1 := idx[e.From]
		ti, ok2 := idx[e.To]
		if ok1 && ok2 && fi != ti {
			g.AddEdge(fi, ti)
		}
	}
	var out [][]*cu.CU
	for _, comp := range g.Components() {
		var grp []*cu.CU
		for _, i := range comp {
			grp = append(grp, cus[i])
		}
		out = append(out, grp)
	}
	return out
}

func sortDeps(ds []profiler.Dep) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Sink != ds[j].Sink {
			return ds[i].Sink.Key() < ds[j].Sink.Key()
		}
		return ds[i].Source.Key() < ds[j].Source.Key()
	})
}

func varNames(vs []*ir.Var) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += ","
		}
		s += v.Name
	}
	return s
}
