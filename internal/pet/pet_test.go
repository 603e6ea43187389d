package pet

import (
	"strings"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// buildCallTree constructs main -> {foo() in a loop, while-loop}, the
// shape of Figure 2.6.
func buildCallTree() *ir.Module {
	b := ir.NewBuilder("fig26")
	g := b.Global("g", ir.F64)
	foo := b.Func("foo")
	foo.Set(g, ir.Add(ir.V(g), ir.CF(1)))
	fooF := foo.Done()
	fb := b.Func("main")
	k := fb.Local("k", ir.I64)
	fb.For("i", ir.CI(0), ir.CI(5), ir.CI(1), func(i *ir.Var) {
		fb.Set(g, ir.V(i)) // Block 1
		fb.Call(fooF)
		fb.Set(g, ir.Add(ir.V(g), ir.CF(2))) // Block 2
	})
	fb.Set(g, ir.CF(0)) // Block 3
	fb.Set(k, ir.CI(3))
	fb.While(ir.Gt(ir.V(k), ir.CI(0)), func() {
		fb.Set(k, ir.Sub(ir.V(k), ir.CI(1))) // Block 4
	})
	return b.Build(fb.Done())
}

func buildTree(t *testing.T, m *ir.Module) (*Tree, int64) {
	t.Helper()
	pb := NewBuilder()
	in := interp.New(m, pb)
	instrs := in.Run()
	return pb.Tree(instrs), instrs
}

func TestPETShape(t *testing.T) {
	m := buildCallTree()
	tree, instrs := buildTree(t, m)
	if tree.Root.Instrs != instrs || instrs == 0 {
		t.Fatalf("total instrs = %d vs %d", tree.Root.Instrs, instrs)
	}
	// Root -> main; main -> for-loop, while-loop; for-loop -> foo.
	var mainNode *Node
	for _, c := range tree.Root.Children {
		if c.Kind == NFunc && c.Func != nil && c.Func.Name == "main" {
			mainNode = c
		}
	}
	if mainNode == nil {
		t.Fatal("no main node under root")
	}
	var loops, funcs int
	for _, c := range mainNode.Children {
		switch c.Kind {
		case NLoop:
			loops++
		case NFunc:
			funcs++
		}
	}
	if loops != 2 {
		t.Fatalf("main has %d loop children, want 2", loops)
	}
	// foo is called from inside the for loop: it must appear under the
	// loop node, connected by a "calling" edge.
	var fooNode *Node
	for _, c := range mainNode.Children {
		if c.Kind != NLoop {
			continue
		}
		for _, cc := range c.Children {
			if cc.Kind == NFunc && cc.Func.Name == "foo" {
				fooNode = cc
			}
		}
	}
	if fooNode == nil {
		t.Fatal("foo not under the for-loop node")
	}
	if fooNode.Entries != 5 {
		t.Errorf("foo entries = %d, want 5", fooNode.Entries)
	}
}

func TestPETIterationCounters(t *testing.T) {
	m := buildCallTree()
	tree, _ := buildTree(t, m)
	for _, n := range tree.Nodes {
		if n.Kind != NLoop {
			continue
		}
		switch {
		case n.Region.Stmt != nil && n.Region.Start.Line < 10:
			// the for loop: 5 iterations
			if n.Iters != 5 && n.Iters != 3 {
				t.Errorf("loop %v iters = %d, want 5 or 3", n.Loc, n.Iters)
			}
		}
	}
}

func TestPETMergesDynamicInstances(t *testing.T) {
	// A function called from two different call paths appears once per
	// parent, with entries merged per static construct.
	prog := workloads.MustBuild("fib", 1)
	tree, _ := buildTree(t, prog.M)
	// fib recurses: the fib node under fib must be a single merged child.
	var count func(n *Node, name string) int
	count = func(n *Node, name string) int {
		c := 0
		for _, ch := range n.Children {
			if ch.Kind == NFunc && ch.Func != nil && ch.Func.Name == name {
				c++
			}
			c += count(ch, name)
		}
		return c
	}
	// fib appears once under main and (as merged recursion) a bounded
	// number of times — not once per dynamic call.
	if n := count(tree.Root, "fib"); n > 40 {
		t.Fatalf("fib nodes = %d; dynamic instances not merged", n)
	}
}

// TestCoverage: a node's inclusive instruction count, the numerator of its
// coverage (Section 4.3.1), lies within the root's, the non-zero total.
func TestCoverage(t *testing.T) {
	m := buildCallTree()
	tree, _ := buildTree(t, m)
	total := tree.Root.Instrs
	if total == 0 {
		t.Fatal("the root spans no instructions")
	}
	for _, n := range tree.Nodes {
		if n.Instrs < 0 || n.Instrs > total {
			t.Errorf("node %v spans %d of %d instructions", n.Loc, n.Instrs, total)
		}
	}
}

func TestAttachDeps(t *testing.T) {
	m := buildCallTree()
	tree, _ := buildTree(t, m)
	var anyLoop *Node
	for _, n := range tree.Nodes {
		if n.Kind == NLoop {
			anyLoop = n
			break
		}
	}
	sinks := map[ir.Loc]int64{
		{File: anyLoop.Region.Start.File, Line: anyLoop.Region.Start.Line + 1}: 3,
	}
	tree.AttachDeps(sinks)
	if anyLoop.Deps == 0 {
		t.Fatal("dependences not attached to enclosing loop node")
	}
}

func TestRender(t *testing.T) {
	m := buildCallTree()
	tree, _ := buildTree(t, m)
	out := tree.Render()
	for _, frag := range []string{"func main", "loop", "iters=", "func foo"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestMultiDispatch(t *testing.T) {
	m := buildCallTree()
	a, b := NewBuilder(), NewBuilder()
	in := interp.New(m, &interp.MultiTracer{Tracers: []interp.Tracer{a, b}})
	instrs := in.Run()
	ta, tb := a.Tree(instrs), b.Tree(instrs)
	if len(ta.Nodes) != len(tb.Nodes) {
		t.Fatalf("multi-dispatched builders diverged: %d vs %d nodes",
			len(ta.Nodes), len(tb.Nodes))
	}
}
