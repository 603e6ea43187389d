package ir

import "sort"

// This file implements the static analyses of Section 3.2.1: determining,
// for every control region, which variables are global to it, and producing
// the ordered sequence of accesses to those variables that the top-down CU
// construction algorithm (Algorithm 3) consumes. Function side effects are
// summarized interprocedurally so that a call statement contributes the
// reads and writes of its callee.

// Effects summarizes the variables a function may read or write: module
// globals (and outer-scope captures) directly, and parameters positionally
// so that by-reference arguments can be mapped through call sites.
type Effects struct {
	ReadG  map[*Var]bool
	WriteG map[*Var]bool
	ReadP  []bool
	WriteP []bool
}

func newEffects(f *Func) *Effects {
	return &Effects{
		ReadG:  map[*Var]bool{},
		WriteG: map[*Var]bool{},
		ReadP:  make([]bool, len(f.Params)),
		WriteP: make([]bool, len(f.Params)),
	}
}

// ComputeEffects returns the side-effect summary of every function in the
// module, iterating to a fixpoint to handle recursion.
func ComputeEffects(m *Module) map[*Func]*Effects {
	eff := make(map[*Func]*Effects, len(m.Funcs))
	for _, f := range m.Funcs {
		eff[f] = newEffects(f)
	}
	paramIdx := func(f *Func, v *Var) int {
		for i, p := range f.Params {
			if p == v {
				return i
			}
		}
		return -1
	}
	changed := true
	for changed {
		changed = false
		for _, f := range m.Funcs {
			e := eff[f]
			record := func(v *Var, write bool) {
				if v.Kind == KGlobal {
					set := e.ReadG
					if write {
						set = e.WriteG
					}
					if !set[v] {
						set[v] = true
						changed = true
					}
					return
				}
				if i := paramIdx(f, v); i >= 0 {
					// By-value params are copies: writes stay local.
					if write && v.ByValue {
						return
					}
					set := e.ReadP
					if write {
						set = e.WriteP
					}
					if !set[i] {
						set[i] = true
						changed = true
					}
				}
			}
			var visitExpr func(x Expr)
			visitCall := func(c *CallExpr) {
				ce := eff[c.Callee]
				if ce == nil {
					return
				}
				for v := range ce.ReadG {
					record(v, false)
				}
				for v := range ce.WriteG {
					record(v, true)
				}
				for i, a := range c.Args {
					if i >= len(ce.ReadP) {
						break
					}
					if r, ok := a.(*Ref); ok && r.Index == nil {
						// Whole-variable argument: reads/writes flow to it.
						if ce.ReadP[i] {
							record(r.Var, false)
						}
						if ce.WriteP[i] && !c.Callee.Params[i].ByValue {
							record(r.Var, true)
						}
					} else {
						visitExpr(a)
					}
					if ce.ReadP[i] || c.Callee.Params[i].ByValue {
						visitExpr(a)
					}
				}
			}
			visitExpr = func(x Expr) {
				WalkExprs(x, func(e2 Expr) {
					switch n := e2.(type) {
					case *Ref:
						record(n.Var, false)
					case *CallExpr:
						visitCall(n)
					}
				})
			}
			Walk(f.Body, func(s Stmt) {
				switch n := s.(type) {
				case *Assign:
					record(n.Dst.Var, true)
				case *Free:
					record(n.Var, true)
				}
				StmtExprs(s, visitExpr)
			})
		}
	}
	return eff
}

// Scope is the result of the module-wide scope analysis.
type Scope struct {
	Effects map[*Func]*Effects
	regions map[*Region]*RegionScope
}

// RegionScope holds scope facts for one region.
type RegionScope struct {
	// GlobalVars are the variables global to the region (declared outside
	// it), in Var.ID order — the GV_c set of Equation 3.1.
	GlobalVars []*Var
	// Uses is every variable referenced anywhere in the region's subtree.
	Uses map[*Var]bool
	// IndVarWritten reports, for loop regions, whether the iteration
	// variable is assigned inside the body (Section 3.2.5).
	IndVarWritten bool
}

// AnalyzeScopes computes global/local variable classification for every
// region in the module.
func AnalyzeScopes(m *Module) *Scope {
	sc := &Scope{Effects: ComputeEffects(m), regions: map[*Region]*RegionScope{}}
	for _, r := range m.Regions {
		sc.regions[r] = sc.analyzeRegion(r)
	}
	return sc
}

// Of returns the scope facts for region r.
func (sc *Scope) Of(r *Region) *RegionScope { return sc.regions[r] }

// regionBody returns the statements forming the region's body.
func regionBody(r *Region) []Stmt {
	switch n := r.Stmt.(type) {
	case nil:
		return r.Func.Body.List
	case *For:
		return n.Body.List
	case *While:
		return n.Body.List
	case *If:
		out := append([]Stmt{}, n.Then.List...)
		if n.Else != nil {
			out = append(out, n.Else.List...)
		}
		return out
	}
	return nil
}

func (sc *Scope) analyzeRegion(r *Region) *RegionScope {
	rs := &RegionScope{Uses: map[*Var]bool{}}
	var record func(v *Var)
	record = func(v *Var) { rs.Uses[v] = true }
	var visitExpr func(x Expr)
	visitExpr = func(x Expr) {
		WalkExprs(x, func(e Expr) {
			switch n := e.(type) {
			case *Ref:
				record(n.Var)
			case *CallExpr:
				ce := sc.Effects[n.Callee]
				if ce == nil {
					return
				}
				for v := range ce.ReadG {
					record(v)
				}
				for v := range ce.WriteG {
					record(v)
				}
			}
		})
	}
	var iv *Var
	if f, ok := r.Stmt.(*For); ok {
		iv = f.IndVar
		record(iv)
	}
	for _, s := range regionBody(r) {
		Walk(s, func(st Stmt) {
			if a, ok := st.(*Assign); ok {
				record(a.Dst.Var)
				if iv != nil && a.Dst.Var == iv {
					rs.IndVarWritten = true
				}
			}
			if fr, ok := st.(*Free); ok {
				record(fr.Var)
			}
			StmtExprs(st, visitExpr)
		})
	}
	for v := range rs.Uses {
		if sc.globalTo(v, r, rs) {
			rs.GlobalVars = append(rs.GlobalVars, v)
		}
	}
	sort.Slice(rs.GlobalVars, func(i, j int) bool {
		return rs.GlobalVars[i].ID < rs.GlobalVars[j].ID
	})
	return rs
}

// globalTo reports whether v is global to region r under the rules of
// Sections 3.2.1 and 3.2.5.
func (sc *Scope) globalTo(v *Var, r *Region, rs *RegionScope) bool {
	if v.Kind == KGlobal {
		return true
	}
	// The loop's own iteration variable is local to the loop by default,
	// global only if written in the body.
	if f, ok := r.Stmt.(*For); ok && f.IndVar == v {
		return rs.IndVarWritten
	}
	// Parameters are global to every region of their function: they are in
	// the function's read set.
	if v.Kind == KParam {
		return true
	}
	// A local is global to r if declared outside r's subtree.
	if v.DeclRegion == nil {
		return true
	}
	return !r.Encloses(v.DeclRegion)
}

// ---------------------------------------------------------------------------
// Ordered access sequences for CU construction.

// VarAccess is one static read or write of a variable at a source location.
type VarAccess struct {
	Loc   Loc
	Var   *Var
	Write bool
}

// SeqItem is one element of a region's body sequence: either a leaf
// statement with its ordered variable accesses, or a nested child region
// (which CU sections may not cross).
type SeqItem struct {
	Child *Region // non-nil for nested regions
	Stmt  Stmt
	Accs  []VarAccess // for leaf statements: reads first, then writes
}

// Sequence returns the ordered body sequence of region r. Leaf statements
// contribute their reads (in evaluation order) followed by their writes;
// calls contribute the callee's summarized effects at the call line.
func (sc *Scope) Sequence(r *Region) []SeqItem {
	var out []SeqItem
	for _, s := range regionBody(r) {
		out = append(out, sc.seqOf(s)...)
	}
	return out
}

func (sc *Scope) seqOf(s Stmt) []SeqItem {
	switch n := s.(type) {
	case *For:
		return []SeqItem{{Child: n.Region, Stmt: s}}
	case *While:
		return []SeqItem{{Child: n.Region, Stmt: s}}
	case *If:
		return []SeqItem{{Child: n.Region, Stmt: s}}
	case *BlockStmt:
		var out []SeqItem
		for _, c := range n.List {
			out = append(out, sc.seqOf(c)...)
		}
		return out
	case *LockRegion:
		var out []SeqItem
		for _, c := range n.Body.List {
			out = append(out, sc.seqOf(c)...)
		}
		return out
	}
	item := SeqItem{Stmt: s}
	addRead := func(v *Var, loc Loc) {
		item.Accs = append(item.Accs, VarAccess{Loc: loc, Var: v, Write: false})
	}
	addWrite := func(v *Var, loc Loc) {
		item.Accs = append(item.Accs, VarAccess{Loc: loc, Var: v, Write: true})
	}
	var visitExpr func(x Expr, loc Loc)
	visitExpr = func(x Expr, loc Loc) {
		WalkExprs(x, func(e Expr) {
			switch en := e.(type) {
			case *Ref:
				addRead(en.Var, loc)
			case *CallExpr:
				ce := sc.Effects[en.Callee]
				if ce == nil {
					return
				}
				for _, v := range sortedVars(ce.ReadG) {
					addRead(v, loc)
				}
				for i, a := range en.Args {
					if r, ok := a.(*Ref); ok && r.Index == nil && i < len(ce.WriteP) &&
						ce.WriteP[i] && !en.Callee.Params[i].ByValue {
						addWrite(r.Var, loc)
					}
				}
				for _, v := range sortedVars(ce.WriteG) {
					addWrite(v, loc)
				}
			}
		})
	}
	loc := s.Location()
	switch n := s.(type) {
	case *Assign:
		if n.Dst.Index != nil {
			visitExpr(n.Dst.Index, loc)
		}
		visitExpr(n.Src, loc)
		addWrite(n.Dst.Var, loc)
	case *CallStmt:
		visitExpr(n.Call, loc)
	case *Spawn:
		visitExpr(n.Call, loc)
	case *Return:
		if n.Val != nil {
			visitExpr(n.Val, loc)
		}
	case *Free:
		addWrite(n.Var, loc)
	}
	return []SeqItem{item}
}

func sortedVars(set map[*Var]bool) []*Var {
	out := make([]*Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
