// Package profiler implements the DiscoPoP data-dependence profiler of
// Chapter 2: signature-based memory tracking (Section 2.3.2), a lock-free
// parallel pipeline for sequential targets (Section 2.3.3), support for
// multi-threaded targets through the same pipeline with lock barriers and
// timestamp-based race flagging (Section 2.3.4), variable lifetime analysis
// and runtime dependence merging (Section 2.3.5), and the loop-skipping
// optimization (Section 2.4).
package profiler

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"discopop/internal/ir"
)

// DepType is the kind of a data dependence (Section 1.2.1). INIT marks the
// first write to a memory address (Section 2.3.1).
type DepType uint8

// Dependence types.
const (
	RAW DepType = iota // read after write (flow/true dependence)
	WAR                // write after read (anti-dependence)
	WAW                // write after write (output dependence)
	INIT
)

func (t DepType) String() string {
	switch t {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	default:
		return "INIT"
	}
}

// Dep is one merged data dependence: <sink, type, source> plus the
// attributes of Section 2.3.5 (variable, thread IDs, inter-iteration tag).
// Two dependences are identical — and merged — iff every field matches.
type Dep struct {
	Sink   ir.Loc
	Type   DepType
	Source ir.Loc
	// Var is the ID of the variable accessed at the sink (-1 for INIT) —
	// the variable "causing" the dependence in the Figure 2.1 format.
	Var int32
	// SinkThr/SrcThr are thread IDs for multi-threaded targets, -1 when
	// profiling sequential programs.
	SinkThr int16
	SrcThr  int16
	// Carried reports that source and sink occurred in different
	// iterations of CarriedBy (the innermost common loop).
	Carried bool
	// CarriedBy is the region ID of the carrying loop (-1 if none).
	CarriedBy int32
	// Reversed marks a dependence whose accesses were observed out of
	// timestamp order, exposing a potential data race (Section 2.3.4).
	Reversed bool
}

// RegionExec aggregates the dynamic control-flow information of one entered
// region: for loops, total iterations (Section 2.3.6).
type RegionExec struct {
	Region *ir.Region
	Iters  int64
	Instrs int64 // inclusive executed leaf statements
}

// SkipStats aggregates the counters behind Table 2.7 and Figure 2.13.
type SkipStats struct {
	Reads        int64 // dynamic read instructions observed
	Writes       int64
	SkippedReads int64
	SkippedWrite int64
	// Dep-relevant instruction counts: instructions that would lead to at
	// least one data dependence.
	DepReads        int64
	DepWrites       int64
	SkippedDepReads int64
	SkippedDepWrite int64
	// Would-be dependence types of skipped instructions (Figure 2.13).
	WouldRAW int64
	WouldWAR int64
	WouldWAW int64
	// ShadowSkips counts the special case of Section 2.4.3 where even the
	// shadow-memory update is elided.
	ShadowSkips int64
}

// Result is the complete output of one profiling run.
type Result struct {
	Mod  *ir.Module
	Deps map[Dep]int64
	// Regions holds dynamic control information indexed by region ID.
	Regions map[int]*RegionExec
	// Lines counts dynamic memory accesses per source line, the per-line
	// work estimate used to weight CUs for ranking.
	Lines map[ir.Loc]int64
	// FuncInstrs is the inclusive executed-statement count per function.
	FuncInstrs map[*ir.Func]int64
	// TotalInstrs is the total number of executed statements — the
	// denominator of instruction coverage (Section 4.3.1).
	TotalInstrs int64
	Skip        SkipStats
	// Accesses is the number of dynamic memory instructions profiled.
	Accesses int64
	// StoreBytes is the memory footprint of the access-status store(s).
	StoreBytes int64
	// Races is the number of distinct dependences flagged Reversed.
	Races int
}

// DepList returns the merged dependences sorted by sink, type, source,
// variable, and then every remaining field: a total order, so two runs
// that found the same dependences list them identically.
func (r *Result) DepList() []Dep {
	out := make([]Dep, 0, len(r.Deps))
	for d := range r.Deps {
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b Dep) int {
		return cmp.Or(
			cmp.Compare(a.Sink.File, b.Sink.File), cmp.Compare(a.Sink.Line, b.Sink.Line),
			cmp.Compare(a.Type, b.Type),
			cmp.Compare(a.Source.File, b.Source.File), cmp.Compare(a.Source.Line, b.Source.Line),
			cmp.Compare(a.Var, b.Var),
			cmp.Compare(a.SinkThr, b.SinkThr), cmp.Compare(a.SrcThr, b.SrcThr),
			cmp.Compare(a.CarriedBy, b.CarriedBy),
			cmpBool(a.Carried, b.Carried), cmpBool(a.Reversed, b.Reversed))
	})
	return out
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

// VarName resolves a dependence's variable name ("*" for INIT).
func (r *Result) VarName(id int32) string {
	if id < 0 || int(id) >= len(r.Mod.Vars) {
		return "*"
	}
	return r.Mod.Vars[id].Name
}

// WriteDepFile renders the dependences in the textual format of Figures 2.1
// and 2.3: one aggregated line per sink with NOM entries, and BGN/END lines
// for control regions. Thread IDs are included iff mt is true.
func (r *Result) WriteDepFile(sb *strings.Builder, mt bool) {
	type sinkGroup struct {
		loc  ir.Loc
		thr  int16
		deps []Dep
	}
	groups := map[uint64]*sinkGroup{}
	key := func(l ir.Loc, thr int16) uint64 {
		k := l.Key()
		if mt {
			k = k<<8 | uint64(uint8(thr))
		}
		return k
	}
	for _, d := range r.DepList() {
		k := key(d.Sink, d.SinkThr)
		g := groups[k]
		if g == nil {
			g = &sinkGroup{loc: d.Sink, thr: d.SinkThr}
			groups[k] = g
		}
		g.deps = append(g.deps, d)
	}
	// Region begin/end markers.
	type marker struct {
		loc   ir.Loc
		begin bool
		kind  ir.RegionKind
		iters int64
	}
	var markers []marker
	for _, re := range r.Regions {
		if re.Region.Kind != ir.RLoop {
			continue
		}
		markers = append(markers, marker{loc: re.Region.Start, begin: true, kind: re.Region.Kind})
		markers = append(markers, marker{loc: re.Region.End, kind: re.Region.Kind, iters: re.Iters})
	}
	var lines []uint64
	for k := range groups {
		lines = append(lines, k)
	}
	seen := map[uint64]bool{}
	for _, m := range markers {
		k := key(m.loc, 0)
		if !seen[k] && groups[k] == nil {
			lines = append(lines, k)
			seen[k] = true
		}
	}
	// Keys order as (file, line, thread): locations are never negative.
	slices.Sort(lines)
	for _, k := range lines {
		g := groups[k]
		var loc ir.Loc
		var thr int16
		if g != nil {
			loc, thr = g.loc, g.thr
		} else {
			if mt {
				loc = ir.LocFromKey(k >> 8)
			} else {
				loc = ir.LocFromKey(k)
			}
		}
		for _, m := range markers {
			if m.loc == loc && m.begin {
				fmt.Fprintf(sb, "%s BGN loop\n", loc)
			}
		}
		if g != nil {
			sb.WriteString(loc.String())
			if mt {
				fmt.Fprintf(sb, "|%d", thr)
			}
			sb.WriteString(" NOM")
			for _, d := range g.deps {
				if d.Type == INIT {
					sb.WriteString(" {INIT *}")
					continue
				}
				if mt {
					fmt.Fprintf(sb, " {%s %s|%d|%s}", d.Type, d.Source, d.SrcThr, r.VarName(d.Var))
				} else {
					fmt.Fprintf(sb, " {%s %s|%s}", d.Type, d.Source, r.VarName(d.Var))
				}
				if d.Reversed {
					sb.WriteString("!")
				}
			}
			sb.WriteString("\n")
		}
		for _, m := range markers {
			if m.loc == loc && !m.begin {
				fmt.Fprintf(sb, "%s END loop %d\n", loc, m.iters)
			}
		}
	}
}

// DiffDeps compares two dependence sets at full granularity (everything
// except race flags and counts), returning dependences present in got but
// not want (false positives) and in want but not got (false negatives).
func DiffDeps(got, want map[Dep]int64) (fp, fn []Dep) {
	return diff(got, want, func(d Dep) Dep {
		d.Reversed = false
		return d
	})
}

// DiffDepsCoarse compares at the paper's dependence granularity —
// <sink, type, source, variable> — ignoring the loop-carried attributes
// this implementation additionally tracks. Table 2.6's FPR/FNR rates are
// defined at this granularity: the paper's 3-byte signature slots encode
// no iteration information, so carried variants of one line-level
// dependence are not distinct dependences there.
func DiffDepsCoarse(got, want map[Dep]int64) (fp, fn []Dep) {
	return diff(got, want, func(d Dep) Dep {
		d.Reversed = false
		d.Carried = false
		d.CarriedBy = -1
		return d
	})
}

func diff(got, want map[Dep]int64, norm func(Dep) Dep) (fp, fn []Dep) {
	g := map[Dep]bool{}
	for d := range got {
		g[norm(d)] = true
	}
	w := map[Dep]bool{}
	for d := range want {
		w[norm(d)] = true
	}
	for d := range g {
		if !w[d] {
			fp = append(fp, d)
		}
	}
	for d := range w {
		if !g[d] {
			fn = append(fn, d)
		}
	}
	return fp, fn
}
