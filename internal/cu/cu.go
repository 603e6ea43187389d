// Package cu implements Computational Units (Chapter 3): the
// language-independent read-compute-write code granularity on which the
// parallelism discovery algorithms operate. The top-down construction
// (Algorithm 3) checks whole control regions against Equation 3.1 and
// splits them at violating reads; the bottom-up construction grows CUs from
// individual accesses, merging along anti-dependences (Section 3.2.3).
package cu

import (
	"fmt"
	"sort"

	"discopop/internal/ir"
	"discopop/internal/profiler"
)

// CU is one computational unit: a set of statements of a single control
// region that, for every variable global to the region, performs all reads
// before all writes (the read-compute-write pattern of Equation 3.1).
type CU struct {
	ID     int
	Region *ir.Region
	Func   *ir.Func
	// Start/End delimit the source span of the unit's statements.
	Start, End ir.Loc
	Stmts      []ir.Stmt
	// ReadSet/WriteSet are the global variables read and written.
	ReadSet  []*ir.Var
	WriteSet []*ir.Var
	// ReadPhase/WritePhase are the source locations of the global-variable
	// reads and writes.
	ReadPhase  []ir.Loc
	WritePhase []ir.Loc
	// Weight is the dynamic work estimate (profiled accesses on the CU's
	// lines); used for ranking and scheduling.
	Weight float64
}

func (c *CU) String() string {
	return fmt.Sprintf("CU#%d %s-%s", c.ID, c.Start, c.End)
}

// Lines returns the distinct source locations of the CU's statements.
func (c *CU) Lines() []ir.Loc {
	var out []ir.Loc
	seen := map[ir.Loc]bool{}
	for _, s := range c.Stmts {
		l := s.Location()
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// Edge is a data-dependence edge between CUs. From is the dependent (sink)
// CU and To the depended-on (source) CU, following Section 3.2.3's "edge
// from the CU of op_i to the CU of op_j, expressing that op_i truly
// depends on op_j". Table 3.1 governs which forms are admitted.
type Edge struct {
	From    *CU
	To      *CU
	Type    profiler.DepType
	Carried bool
	Count   int64
}

// Graph is a CU graph: computational units plus dependence edges.
type Graph struct {
	CUs    []*CU
	Edges  []*Edge
	byLine map[ir.Loc]*CU
	// ByRegion lists the CUs of each region in program order.
	ByRegion map[*ir.Region][]*CU
}

// CUAt returns the CU containing the given source location, or nil (loop
// header lines, for instance, belong to no CU).
func (g *Graph) CUAt(loc ir.Loc) *CU { return g.byLine[loc] }

// builder state for top-down construction.
type builder struct {
	sc    *ir.Scope
	res   *profiler.Result
	graph *Graph
}

// Build constructs the CU graph of the module with the top-down algorithm,
// weighting CUs and classifying edges using the profiling result.
func Build(m *ir.Module, sc *ir.Scope, res *profiler.Result) *Graph {
	b := &builder{sc: sc, res: res,
		graph: &Graph{byLine: map[ir.Loc]*CU{}, ByRegion: map[*ir.Region][]*CU{}}}
	for _, r := range m.Regions {
		b.buildRegion(r)
	}
	b.weights()
	b.edges()
	return b.graph
}

// section accumulates one CU candidate while scanning a region's body.
type section struct {
	stmts      []ir.Stmt
	readSet    map[*ir.Var]bool
	writeSet   map[*ir.Var]bool
	readPhase  []ir.Loc
	writePhase []ir.Loc
	written    map[*ir.Var]bool
}

func newSection() *section {
	return &section{readSet: map[*ir.Var]bool{}, writeSet: map[*ir.Var]bool{},
		written: map[*ir.Var]bool{}}
}

func (s *section) empty() bool { return len(s.stmts) == 0 }

// buildRegion applies Algorithm 3 to one region: scan the body sequence in
// order; a read of a global variable already written in the current
// section violates the read-compute-write pattern and closes the section
// before the reading statement. Nested child regions bound sections, since
// CUs never cross control-region boundaries (Section 3.1).
func (b *builder) buildRegion(r *ir.Region) {
	rs := b.sc.Of(r)
	gv := map[*ir.Var]bool{}
	for _, v := range rs.GlobalVars {
		gv[v] = true
	}
	seq := b.sc.Sequence(r)
	cur := newSection()
	flush := func() {
		if !cur.empty() {
			b.emit(r, cur)
		}
		cur = newSection()
	}
	for _, item := range seq {
		if item.Child != nil {
			flush()
			continue
		}
		// Violation check (Equation 3.1): a global read after a global
		// write of the same variable within the current section.
		violates := false
		for _, a := range item.Accs {
			if !a.Write && gv[a.Var] && cur.written[a.Var] {
				violates = true
				break
			}
		}
		if violates {
			flush()
		}
		cur.stmts = append(cur.stmts, item.Stmt)
		for _, a := range item.Accs {
			if !gv[a.Var] {
				continue
			}
			if a.Write {
				cur.writeSet[a.Var] = true
				cur.writePhase = append(cur.writePhase, a.Loc)
				cur.written[a.Var] = true
			} else {
				cur.readSet[a.Var] = true
				cur.readPhase = append(cur.readPhase, a.Loc)
			}
		}
	}
	flush()
}

func (b *builder) emit(r *ir.Region, s *section) {
	c := &CU{
		ID:         len(b.graph.CUs),
		Region:     r,
		Func:       r.Func,
		Stmts:      s.stmts,
		ReadPhase:  s.readPhase,
		WritePhase: s.writePhase,
	}
	c.Start = s.stmts[0].Location()
	c.End = s.stmts[len(s.stmts)-1].Location()
	c.ReadSet = sortedVars(s.readSet)
	c.WriteSet = sortedVars(s.writeSet)
	b.graph.CUs = append(b.graph.CUs, c)
	b.graph.ByRegion[r] = append(b.graph.ByRegion[r], c)
	for _, st := range s.stmts {
		b.graph.byLine[st.Location()] = c
	}
}

func sortedVars(set map[*ir.Var]bool) []*ir.Var {
	out := make([]*ir.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (b *builder) weights() {
	if b.res == nil {
		return
	}
	for _, c := range b.graph.CUs {
		for _, l := range c.Lines() {
			c.Weight += float64(b.res.Lines[l])
		}
	}
}

// edges converts the profiled line-level dependences into CU-graph edges,
// applying the Table 3.1 admission rules: same-CU WAR and WAW edges are
// dropped; same-CU RAW edges are kept only when loop-carried (the
// iterative-computation self edge); all cross-CU edges are kept.
func (b *builder) edges() {
	if b.res == nil {
		return
	}
	type ekey struct {
		from, to *CU
		t        profiler.DepType
		carried  bool
		by       int32 // one edge per carrying loop
	}
	merged := map[ekey]int64{}
	for d, n := range b.res.Deps {
		if d.Type == profiler.INIT {
			continue
		}
		from := b.graph.byLine[d.Sink]
		to := b.graph.byLine[d.Source]
		if from == nil || to == nil {
			continue
		}
		if from == to {
			if d.Type != profiler.RAW || !d.Carried {
				continue
			}
		}
		merged[ekey{from, to, d.Type, d.Carried, d.CarriedBy}] += n
	}
	for k, n := range merged {
		b.graph.Edges = append(b.graph.Edges, &Edge{
			From: k.from, To: k.to, Type: k.t, Carried: k.carried, Count: n})
	}
	// Sort on every field of Edge: edges that still tie differ only in
	// their carrying loop, which Edge does not keep, and print identically.
	sort.Slice(b.graph.Edges, func(i, j int) bool {
		a, c := b.graph.Edges[i], b.graph.Edges[j]
		if a.From.ID != c.From.ID {
			return a.From.ID < c.From.ID
		}
		if a.To.ID != c.To.ID {
			return a.To.ID < c.To.ID
		}
		if a.Type != c.Type {
			return a.Type < c.Type
		}
		if a.Carried != c.Carried {
			return !a.Carried
		}
		return a.Count < c.Count
	})
}
