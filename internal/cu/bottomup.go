package cu

import (
	"sort"

	"discopop/internal/ir"
	"discopop/internal/profiler"
)

// BuildBottomUp constructs CUs with the bottom-up approach of
// Section 3.2.3: every statement of a region starts as its own unit, and
// units connected by anti-dependences (WAR) within the same region are
// merged, consistent with the definition that a CU's read phase happens
// before its write phase. True dependences (RAW) become edges between the
// resulting units.
//
// As the paper observes, this produces many fine-grained CUs — often a
// single source line — which is why the framework prefers the top-down
// algorithm; the bottom-up variant is provided for comparison and for the
// granularity discussion of Section 3.3.
func BuildBottomUp(m *ir.Module, sc *ir.Scope, res *profiler.Result) *Graph {
	g := &Graph{byLine: map[ir.Loc]*CU{}, ByRegion: map[*ir.Region][]*CU{}}
	// Union-find over per-region leaf statements.
	type unit struct {
		region *ir.Region
		stmt   ir.Stmt
	}
	var units []unit
	idxOf := map[ir.Loc]int{}
	parent := []int{}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, r := range m.Regions {
		for _, item := range sc.Sequence(r) {
			if item.Child != nil || item.Stmt == nil {
				continue
			}
			loc := item.Stmt.Location()
			if _, dup := idxOf[loc]; dup {
				continue
			}
			idxOf[loc] = len(units)
			units = append(units, unit{region: r, stmt: item.Stmt})
			parent = append(parent, len(parent))
		}
	}
	sameRegion := func(a, b ir.Loc) (int, int, bool) {
		ia, oka := idxOf[a]
		ib, okb := idxOf[b]
		if !oka || !okb {
			return 0, 0, false
		}
		if units[ia].region != units[ib].region {
			return 0, 0, false
		}
		return ia, ib, true
	}
	if res != nil {
		for d := range res.Deps {
			if d.Type != profiler.WAR || d.Carried {
				continue
			}
			if ia, ib, ok := sameRegion(d.Sink, d.Source); ok {
				// op_sink anti-depends on op_source: merge their CUs.
				union(ia, ib)
			}
		}
	}
	// Materialize merged CUs.
	groups := map[int][]int{}
	for i := range units {
		groups[find(i)] = append(groups[find(i)], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	sc2 := sc
	for _, root := range roots {
		members := groups[root]
		sort.Ints(members)
		c := &CU{ID: len(g.CUs), Region: units[members[0]].region,
			Func: units[members[0]].region.Func}
		rs := sc2.Of(c.Region)
		gv := map[*ir.Var]bool{}
		for _, v := range rs.GlobalVars {
			gv[v] = true
		}
		readSet, writeSet := map[*ir.Var]bool{}, map[*ir.Var]bool{}
		for _, i := range members {
			st := units[i].stmt
			c.Stmts = append(c.Stmts, st)
			for _, item := range sc2.Sequence(units[i].region) {
				if item.Stmt != st {
					continue
				}
				for _, a := range item.Accs {
					if !gv[a.Var] {
						continue
					}
					if a.Write {
						writeSet[a.Var] = true
						c.WritePhase = append(c.WritePhase, a.Loc)
					} else {
						readSet[a.Var] = true
						c.ReadPhase = append(c.ReadPhase, a.Loc)
					}
				}
			}
		}
		c.ReadSet = sortedVars(readSet)
		c.WriteSet = sortedVars(writeSet)
		c.Start = c.Stmts[0].Location()
		c.End = c.Stmts[len(c.Stmts)-1].Location()
		g.CUs = append(g.CUs, c)
		g.ByRegion[c.Region] = append(g.ByRegion[c.Region], c)
		for _, st := range c.Stmts {
			g.byLine[st.Location()] = c
		}
	}
	// Weights and edges exactly as in the top-down build.
	b := &builder{sc: sc, res: res, graph: g}
	b.weights()
	b.edges()
	return g
}
