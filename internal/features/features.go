// Package features implements the first further application of the
// framework (Section 5.1): characterizing DOALL loops with dynamic
// features extracted from the profiler's output and classifying them with
// an AdaBoost ensemble of decision stumps, reproducing the Table 5.1
// feature set, the Table 5.2 importance ranking, and the Table 5.3
// held-out classification scores.
package features

import (
	"discopop/internal/discovery"
	"discopop/internal/ir"
	"discopop/internal/profiler"
)

// Names lists the dynamic features, in vector order (Table 5.1).
var Names = []string{
	"iterations",           // profiled trip count
	"instrs_per_iter",      // dynamic statements per iteration
	"coverage",             // fraction of total work inside the loop
	"carried_raw",          // distinct loop-carried RAW dependences
	"carried_war_waw",      // distinct carried anti/output dependences
	"distinct_vars",        // variables involved in dependences
	"read_write_ratio",     // profiled reads / writes on loop lines
	"has_calls",            // body contains function calls
	"nest_depth",           // loop nesting depth
	"reduction_candidates", // statically recognized reduction statements
}

// Vector is one loop's feature vector.
type Vector [10]float64

// Sample is a labelled loop.
type Sample struct {
	Loop  *ir.Region
	X     Vector
	DOALL bool // label: iterations are independent (incl. reductions)
	// Pragma marks loops that carry a parallelization pragma in the
	// reference parallel implementation (Table 5.3 reports scores for the
	// two groups separately); we use ground-truth DOALL loops with
	// significant weight as the pragma group.
	Pragma bool
}

// Extract computes feature vectors for every executed loop of a profiled
// module.
func Extract(m *ir.Module, sc *ir.Scope, res *profiler.Result) []Sample {
	var out []Sample
	total := float64(res.TotalInstrs)
	for _, r := range m.Regions {
		if r.Kind != ir.RLoop {
			continue
		}
		re := res.Regions[r.ID]
		if re == nil || re.Iters == 0 {
			continue
		}
		var v Vector
		v[0] = float64(re.Iters)
		v[1] = float64(re.Instrs) / float64(max(re.Iters, 1))
		if total > 0 {
			v[2] = float64(re.Instrs) / total
		}
		// Dependences on the loop's own (unwritten) index variable do not
		// prevent parallelism (Section 3.2.5); the classifier must see
		// the same filtered view the discovery algorithms use.
		var indVarID = int32(-1)
		if f, ok := r.Stmt.(*ir.For); ok && !sc.Of(r).IndVarWritten {
			indVarID = int32(f.IndVar.ID)
		}
		carriedRAW, carriedOther := 0, 0
		vars := map[int32]bool{}
		for d := range res.Deps {
			if d.CarriedBy != int32(r.ID) || !d.Carried {
				continue
			}
			if d.Var == indVarID {
				continue
			}
			if v := varByID(m, d.Var); v != nil && isInnerIndVar(sc, r, v) {
				continue
			}
			vars[d.Var] = true
			if d.Type == profiler.RAW {
				carriedRAW++
			} else {
				carriedOther++
			}
		}
		v[3] = float64(carriedRAW)
		v[4] = float64(carriedOther)
		v[5] = float64(len(vars))
		var reads, writes float64
		for loc, n := range res.Lines {
			if loc.File == r.Start.File && loc.Line >= r.Start.Line && loc.Line <= r.End.Line {
				reads += float64(n) // line counts mix reads and writes
			}
		}
		writes = float64(carriedOther + 1)
		v[6] = reads / writes
		if hasCalls(r) {
			v[7] = 1
		}
		v[8] = float64(r.Depth())
		v[9] = float64(len(discovery.FindReductions(sc, r)))
		out = append(out, Sample{Loop: r, X: v})
	}
	return out
}

func varByID(m *ir.Module, id int32) *ir.Var {
	if id < 0 || int(id) >= len(m.Vars) {
		return nil
	}
	return m.Vars[id]
}

// isInnerIndVar reports whether v is the unwritten index variable of a
// loop nested inside r.
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

func hasCalls(r *ir.Region) bool {
	found := false
	var body ir.Stmt
	switch n := r.Stmt.(type) {
	case *ir.For:
		body = n.Body
	case *ir.While:
		body = n.Body
	default:
		return false
	}
	ir.Walk(body, func(s ir.Stmt) {
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

// Label fills the DOALL and Pragma fields from ground truth.
func Label(samples []Sample, doall map[*ir.Region]bool, hot map[*ir.Region]bool) {
	for i := range samples {
		samples[i].DOALL = doall[samples[i].Loop]
		samples[i].Pragma = doall[samples[i].Loop] && hot[samples[i].Loop]
	}
}
