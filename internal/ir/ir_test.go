package ir

import (
	"strings"
	"testing"
)

func buildNested() (*Module, map[string]*Region) {
	regions := map[string]*Region{}
	b := NewBuilder("nested")
	g := b.Global("g", F64)
	fb := b.Func("main")
	x := fb.Local("x", F64)
	fb.Set(x, CF(1))
	regions["outer"] = fb.For("i", CI(0), CI(3), CI(1), func(i *Var) {
		y := fb.Local("y", F64)
		fb.Set(y, V(i))
		regions["inner"] = fb.For("j", CI(0), CI(2), CI(1), func(j *Var) {
			fb.Set(g, Add(V(g), Mul(V(y), V(j))))
		})
		fb.IfElse(Gt(V(y), CF(1)), func() {
			fb.Set(x, V(y))
		}, func() {
			fb.Set(x, CF(0))
		})
	})
	m := b.Build(fb.Done())
	return m, regions
}

func TestBuilderRegionNesting(t *testing.T) {
	m, regions := buildNested()
	outer, inner := regions["outer"], regions["inner"]
	if !outer.Encloses(inner) {
		t.Error("outer does not enclose inner")
	}
	if inner.Encloses(outer) {
		t.Error("inner encloses outer")
	}
	if inner.Parent != outer {
		t.Errorf("inner.Parent = %v, want outer", inner.Parent)
	}
	if outer.Depth() != 1 || inner.Depth() != 2 {
		t.Errorf("depths = %d, %d, want 1, 2", outer.Depth(), inner.Depth())
	}
	if m.Main.Region.Depth() != 0 {
		t.Errorf("function region depth = %d", m.Main.Region.Depth())
	}
	// Exactly: function, outer loop, inner loop, branch.
	if len(m.Regions) != 4 {
		t.Errorf("region count = %d, want 4", len(m.Regions))
	}
}

func TestBuilderLineMonotonicity(t *testing.T) {
	m, _ := buildNested()
	var last int32
	Walk(m.Main.Body, func(s Stmt) {
		l := s.Location().Line
		if l < last && l != 0 {
			// Lines of nested statements always increase in emission
			// order within a file.
			t.Errorf("line %d after %d", l, last)
		}
		if l > last {
			last = l
		}
	})
	if last == 0 {
		t.Fatal("no lines assigned")
	}
}

func TestRegionAt(t *testing.T) {
	m, regions := buildNested()
	inner := regions["inner"]
	body := inner.Stmt.(*For).Body.List[0].Location()
	got := m.RegionAt(body)
	if got != inner {
		t.Errorf("RegionAt(%v) = %v, want inner", body, got)
	}
}

func TestLocKeyRoundTrip(t *testing.T) {
	for _, l := range []Loc{{1, 1}, {2, 9999}, {1023, 1 << 20}} {
		if got := LocFromKey(l.Key()); got != l {
			t.Errorf("round trip %v -> %v", l, got)
		}
	}
}

func TestScopeGlobalVars(t *testing.T) {
	m, regions := buildNested()
	sc := AnalyzeScopes(m)
	inner := sc.Of(regions["inner"])
	// Inner loop uses: g (module global), y (declared in outer body), j
	// (own index, unwritten -> local).
	names := map[string]bool{}
	for _, v := range inner.GlobalVars {
		names[v.Name] = true
	}
	if !names["g"] || !names["y"] {
		t.Errorf("inner globalVars = %v, want g and y", names)
	}
	if names["j"] {
		t.Error("unwritten loop index j must be local to its loop (§3.2.5)")
	}
	outer := sc.Of(regions["outer"])
	onames := map[string]bool{}
	for _, v := range outer.GlobalVars {
		onames[v.Name] = true
	}
	if onames["y"] {
		t.Error("y is declared inside outer's body: local to outer")
	}
	if !onames["x"] || !onames["g"] {
		t.Errorf("outer globalVars = %v, want x and g", onames)
	}
}

func TestScopeIndVarWritten(t *testing.T) {
	b := NewBuilder("ivw")
	fb := b.Func("main")
	var loop *Region
	loop = fb.While(CF(0), func() {}) // placeholder to silence unused
	_ = loop
	r := fb.For("i", CI(0), CI(10), CI(1), func(i *Var) {
		// Writing the index inside the body makes it global (§3.2.5).
		fb.Set(i, Add(V(i), CI(1)))
	})
	m := b.Build(fb.Done())
	sc := AnalyzeScopes(m)
	if !sc.Of(r).IndVarWritten {
		t.Fatal("IndVarWritten not detected")
	}
	found := false
	for _, v := range sc.Of(r).GlobalVars {
		if v.Name == "i" {
			found = true
		}
	}
	if !found {
		t.Fatal("written index variable must be global to the loop")
	}
}

func TestEffectsByRefParams(t *testing.T) {
	b := NewBuilder("fx")
	g := b.Global("g", F64)
	callee := b.FuncRet("inc")
	arr := callee.RefParam("arr", F64, 4)
	byval := callee.Param("v", F64)
	callee.SetAt(arr, CI(0), Add(At(arr, CI(0)), V(byval)))
	callee.Set(g, CF(1))
	callee.Return(At(arr, CI(0)))
	calleeF := callee.Done()

	fb := b.Func("main")
	local := fb.Array("local", F64, 4)
	dst := fb.Local("dst", F64)
	fb.CallInto(V(dst), calleeF, V(local), CF(2))
	m := b.Build(fb.Done())

	eff := ComputeEffects(m)
	ce := eff[calleeF]
	if !ce.WriteG[g] {
		t.Error("callee's global write not summarized")
	}
	if !ce.ReadP[0] || !ce.WriteP[0] {
		t.Error("by-ref param reads/writes not summarized")
	}
	if ce.WriteP[1] {
		t.Error("by-value param marked written")
	}
	// The caller's effect summary must include the flow through the
	// by-ref argument... main has no callers, but the Sequence of main's
	// body must attribute a write to `local` at the call line.
	sc := AnalyzeScopes(m)
	seq := sc.Sequence(m.Main.Region)
	foundWrite := false
	for _, item := range seq {
		for _, a := range item.Accs {
			if a.Var == local && a.Write {
				foundWrite = true
			}
		}
	}
	if !foundWrite {
		t.Error("call does not propagate by-ref write to argument variable")
	}
}

func TestEffectsRecursion(t *testing.T) {
	b := NewBuilder("rec")
	g := b.Global("acc", F64)
	f := b.Forward("down", false)
	fb := b.DefineForward(f)
	n := fb.Param("n", F64)
	fb.If(Gt(V(n), CI(0)), func() {
		fb.Set(g, Add(V(g), V(n)))
		fb.Call(f, Sub(V(n), CI(1)))
	})
	fb.Done()
	mb := b.Func("main")
	mb.Call(f, CI(3))
	m := b.Build(mb.Done())
	eff := ComputeEffects(m)
	if !eff[f].WriteG[g] || !eff[f].ReadG[g] {
		t.Fatalf("recursive effects missing: %+v", eff[f])
	}
}

func TestPrintRendersProgram(t *testing.T) {
	m, _ := buildNested()
	out := Print(m)
	for _, frag := range []string{"module nested", "func main", "for i", "for j", "if", "global f64 g[1]"} {
		if !strings.Contains(out, frag) {
			t.Errorf("print output missing %q:\n%s", frag, out)
		}
	}
}

func TestExprString(t *testing.T) {
	b := NewBuilder("es")
	fb := b.Func("main")
	x := fb.Local("x", F64)
	_ = fb
	cases := []struct {
		e    Expr
		want string
	}{
		{Add(V(x), CI(1)), "(x + 1)"},
		{At(x, CI(0)), "x[0]"},
		{Sqrt(V(x)), "sqrt(x)"},
		{Rnd(), "rand()"},
		{Min(CF(1.5), V(x)), "(1.5 min x)"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
}

func TestBinOpCommutative(t *testing.T) {
	comm := []BinOp{OpAdd, OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax}
	nonComm := []BinOp{OpSub, OpDiv, OpMod, OpShl, OpShr, OpLt, OpEq}
	for _, op := range comm {
		if !op.Commutative() {
			t.Errorf("%v should be commutative", op)
		}
	}
	for _, op := range nonComm {
		if op.Commutative() {
			t.Errorf("%v should not be commutative", op)
		}
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	m, _ := buildNested()
	count := 0
	Walk(m.Main.Body, func(Stmt) { count++ })
	// block + set + for + block + set + for + block + set + if + 2 blocks
	// + 2 sets = 13.
	if count < 10 {
		t.Errorf("Walk visited only %d statements", count)
	}
}
