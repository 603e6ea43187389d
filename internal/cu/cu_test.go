package cu

import (
	"fmt"
	"slices"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// fig34 builds the example of Figure 3.4:
//
//	int x = 3;
//	for (i = 0; i < N; ++i) {
//	    int a = x + rand() / x;
//	    int b = x - rand() / x;
//	    x = a + b;
//	}
//
// With a and b local to the loop, lines 3-5 form ONE CU. With a and b
// declared outside the loop they become global to it, and the loop body
// splits into TWO CUs (lines 3-4 | line 5) — both behaviours are asserted
// below, exactly as the text describes.
func fig34(abOutside bool) (*ir.Module, *ir.Region) {
	b := ir.NewBuilder("fig34")
	x := b.Global("x", ir.F64)
	fb := b.Func("main")
	var a, bb *ir.Var
	if abOutside {
		a = fb.Local("a", ir.F64)
		bb = fb.Local("b", ir.F64)
	}
	fb.Set(x, ir.CF(3))
	var loop *ir.Region
	loop = fb.For("i", ir.CI(0), ir.CI(8), ir.CI(1), func(i *ir.Var) {
		if !abOutside {
			a = fb.Local("a", ir.F64)
			bb = fb.Local("b", ir.F64)
		}
		fb.Set(a, ir.Add(ir.V(x), ir.Div(ir.Rnd(), ir.V(x))))
		fb.Set(bb, ir.Sub(ir.V(x), ir.Div(ir.Rnd(), ir.V(x))))
		fb.Set(x, ir.Add(ir.V(a), ir.V(bb)))
	})
	return b.Build(fb.Done()), loop
}

func analyzeCU(t *testing.T, m *ir.Module) (*Graph, *profiler.Result) {
	t.Helper()
	res := profiler.Profile(m, profiler.Options{Store: profiler.StorePerfect})
	sc := ir.AnalyzeScopes(m)
	return Build(m, sc, res), res
}

func TestFig34OneCULocalTemps(t *testing.T) {
	m, loop := fig34(false)
	g, _ := analyzeCU(t, m)
	cus := g.ByRegion[loop]
	if len(cus) != 1 {
		t.Fatalf("loop body with local temps: %d CUs, want 1", len(cus))
	}
	c := cus[0]
	// Read set and write set are both {x}; a and b are local.
	if len(c.ReadSet) != 1 || c.ReadSet[0].Name != "x" {
		t.Errorf("readSet = %v, want [x]", c.ReadSet)
	}
	if len(c.WriteSet) != 1 || c.WriteSet[0].Name != "x" {
		t.Errorf("writeSet = %v, want [x]", c.WriteSet)
	}
	if len(c.Stmts) != 3 {
		t.Errorf("CU statements = %d, want 3", len(c.Stmts))
	}
}

func TestFig34TwoCUsGlobalTemps(t *testing.T) {
	m, loop := fig34(true)
	g, _ := analyzeCU(t, m)
	cus := g.ByRegion[loop]
	if len(cus) != 2 {
		t.Fatalf("loop body with outer temps: %d CUs, want 2 (lines 3-4 | line 5)", len(cus))
	}
	if len(cus[0].Stmts) != 2 || len(cus[1].Stmts) != 1 {
		t.Errorf("CU split = %d|%d statements, want 2|1",
			len(cus[0].Stmts), len(cus[1].Stmts))
	}
}

// TestTable3_1EdgeForms verifies the CU-graph edge admission rules on
// every bundled workload: no same-CU WAR or WAW edges; same-CU RAW edges
// only when loop-carried.
func TestTable3_1EdgeForms(t *testing.T) {
	for _, suite := range []string{"NAS", "Starbench", "textbook"} {
		for _, name := range workloads.Names(suite) {
			prog := workloads.MustBuild(name, 1)
			g, _ := analyzeCU(t, prog.M)
			for _, e := range g.Edges {
				if e.From == e.To {
					if e.Type != profiler.RAW {
						t.Errorf("%s: same-CU %v edge on %v", name, e.Type, e.From)
					}
					if !e.Carried {
						t.Errorf("%s: same-CU RAW edge not loop-carried on %v", name, e.From)
					}
				}
			}
		}
	}
}

// TestReadBeforeWriteInvariant: within every CU's section, no statement
// reads a global variable that an earlier statement of the same CU wrote —
// the defining property (Equation 3.1) the top-down algorithm enforces.
func TestReadBeforeWriteInvariant(t *testing.T) {
	for _, name := range workloads.Names("NAS") {
		prog := workloads.MustBuild(name, 1)
		sc := ir.AnalyzeScopes(prog.M)
		g := Build(prog.M, sc, nil)
		for _, c := range g.CUs {
			gv := map[*ir.Var]bool{}
			for _, v := range sc.Of(c.Region).GlobalVars {
				gv[v] = true
			}
			written := map[*ir.Var]bool{}
			for _, item := range sc.Sequence(c.Region) {
				if item.Child != nil {
					continue
				}
				inCU := false
				for _, s := range c.Stmts {
					if s == item.Stmt {
						inCU = true
					}
				}
				if !inCU {
					continue
				}
				for _, acc := range item.Accs {
					if !gv[acc.Var] {
						continue
					}
					if !acc.Write && written[acc.Var] {
						t.Errorf("%s: CU %v reads %s after writing it", name, c, acc.Var.Name)
					}
					if acc.Write {
						written[acc.Var] = true
					}
				}
			}
		}
	}
}

// TestByLineMappingUnique: every line maps to at most one CU.
func TestByLineMappingUnique(t *testing.T) {
	prog := workloads.MustBuild("CG", 1)
	g, _ := analyzeCU(t, prog.M)
	seen := map[ir.Loc]*CU{}
	for _, c := range g.CUs {
		for _, l := range c.Lines() {
			if prev, ok := seen[l]; ok && prev != c {
				t.Fatalf("line %v in two CUs: %v and %v", l, prev, c)
			}
			seen[l] = c
		}
	}
}

// TestCUWeightsPositive: executed CUs carry dynamic weight.
func TestCUWeightsPositive(t *testing.T) {
	prog := workloads.MustBuild("rgbyuv", 1)
	g, _ := analyzeCU(t, prog.M)
	weighted := 0
	for _, c := range g.CUs {
		if c.Weight > 0 {
			weighted++
		}
	}
	if weighted == 0 {
		t.Fatal("no CU has dynamic weight")
	}
}

// TestBottomUpFinerGrained: the bottom-up construction produces at least
// as many CUs as the top-down one (Section 3.3's granularity discussion).
func TestBottomUpFinerGrained(t *testing.T) {
	for _, name := range []string{"CG", "kmeans", "histogram"} {
		prog := workloads.MustBuild(name, 1)
		res := profiler.Profile(prog.M, profiler.Options{Store: profiler.StorePerfect})
		sc := ir.AnalyzeScopes(prog.M)
		td := Build(prog.M, sc, res)
		bu := BuildBottomUp(prog.M, sc, res)
		if len(bu.CUs) < len(td.CUs) {
			t.Errorf("%s: bottom-up %d CUs < top-down %d", name, len(bu.CUs), len(td.CUs))
		}
	}
}

// TestRotCCStructure: the rot-cc CU graph (Figure 3.6) must expose the
// stage structure — the color-conversion CU truly depends on the rotate
// CU through the mid buffer.
func TestRotCCStructure(t *testing.T) {
	prog := workloads.MustBuild("rot-cc", 1)
	g, _ := analyzeCU(t, prog.M)
	foundStageEdge := false
	for _, e := range g.Edges {
		if e.Type != profiler.RAW || e.From == e.To {
			continue
		}
		for _, v := range e.From.ReadSet {
			if v.Name == "mid" {
				foundStageEdge = true
			}
		}
	}
	if !foundStageEdge {
		t.Fatal("rot-cc CU graph lacks the rotate -> color-conversion RAW edge")
	}
}

// TestEdgeOrderDeterministic builds the CU graphs of a few registry
// workloads 20 times from one profile each. The merged edges come out of a
// map, so only a sort on every field of Edge gives the same sequence each
// time; edges tied on fewer fields (a carried edge and its non-carried
// twin) swap from build to build.
func TestEdgeOrderDeterministic(t *testing.T) {
	for _, name := range []string{"CG", "kmeans", "histogram", "md5-mt"} {
		m := workloads.MustBuild(name, 1).M
		res := profiler.Profile(m, profiler.Options{Store: profiler.StorePerfect})
		sc := ir.AnalyzeScopes(m)
		var first []string
		for i := 0; i < 20; i++ {
			var seq []string
			for _, e := range Build(m, sc, res).Edges {
				seq = append(seq, fmt.Sprintf("%d %d %v %v %d", e.From.ID, e.To.ID, e.Type, e.Carried, e.Count))
			}
			if i == 0 {
				first = seq
			} else if !slices.Equal(seq, first) {
				t.Fatalf("%s: build %d orders its %d edges differently from build 0", name, i, len(seq))
			}
		}
	}
}
