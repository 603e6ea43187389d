// Package pet builds the Program Execution Tree of Section 2.3.6: a tree
// with function, loop, and block nodes connected by "calling" and
// "containing" edges, each node annotated with metrics (executed IR
// statements, loop iteration counts, dependence counts) used for parallel
// pattern detection and for ranking parallelization opportunities.
package pet

import (
	"fmt"
	"sort"
	"strings"

	"discopop/internal/interp"
	"discopop/internal/ir"
)

// NodeKind classifies PET nodes.
type NodeKind uint8

const (
	// NFunc is a function node (incoming edges are "calling" edges).
	NFunc NodeKind = iota
	// NLoop is a loop node with an iteration counter (incoming edges are
	// "containing" edges).
	NLoop
)

func (k NodeKind) String() string {
	if k == NLoop {
		return "loop"
	}
	return "func"
}

// Node is one PET node. A node represents the aggregation of all dynamic
// instances of the same static construct within the same parent, the same
// way the profiler merges dependences of multiple region instances.
type Node struct {
	ID       int
	Kind     NodeKind
	Func     *ir.Func   // for NFunc
	Region   *ir.Region // for NLoop
	Loc      ir.Loc
	Children []*Node

	// Metrics.
	Entries int64 // times this construct was entered
	Iters   int64 // loop iterations (NLoop)
	Instrs  int64 // inclusive executed IR statements
	Deps    int64 // dependences whose sink lies in this construct's span
}

// Tree is a complete PET.
type Tree struct {
	// Root's Instrs is the total number of executed IR statements, the
	// denominator of instruction coverage (Section 4.3.1).
	Root  *Node
	Nodes []*Node
}

// Builder is an interp.Tracer that constructs the PET during execution.
type Builder struct {
	tree  *Tree
	stack [][]*Node // per-thread construct stack
}

// NewBuilder returns a PET-building tracer.
func NewBuilder() *Builder {
	root := &Node{ID: 0, Kind: NFunc}
	b := &Builder{tree: &Tree{Root: root, Nodes: []*Node{root}}}
	b.stack = make([][]*Node, interp.MaxThreads)
	for i := range b.stack {
		b.stack[i] = []*Node{root}
	}
	return b
}

func (b *Builder) top(tid int32) *Node { s := b.stack[tid]; return s[len(s)-1] }

// child finds or creates the child of parent for the given static
// construct, merging repeated dynamic instances.
func (b *Builder) child(parent *Node, kind NodeKind, f *ir.Func, r *ir.Region, loc ir.Loc) *Node {
	for _, c := range parent.Children {
		if c.Kind == kind && c.Func == f && c.Region == r {
			return c
		}
	}
	n := &Node{ID: len(b.tree.Nodes), Kind: kind, Func: f, Region: r, Loc: loc}
	parent.Children = append(parent.Children, n)
	b.tree.Nodes = append(b.tree.Nodes, n)
	return n
}

// ProcessBatch implements interp.Tracer: the builder consumes only function
// and loop-region boundaries (branches contribute to their parent block), so
// a chunk reduces to a switch over four event kinds with every access
// skipped at one comparison each.
func (b *Builder) ProcessBatch(m *ir.Module, evs []interp.Ev) {
	for i := range evs {
		ev := &evs[i]
		kind := ev.Kind()
		if kind <= interp.EvStore {
			continue // an access: nine events in ten
		}
		tid := ev.Tid()
		switch kind {
		case interp.EvEnterFunc:
			f := m.Funcs[ev.A]
			b.push(tid, b.child(b.top(tid), NFunc, f, nil, f.Loc))
		case interp.EvExitFunc:
			b.pop(tid).Instrs += int64(ev.Addr)
		case interp.EvEnterRegion:
			if r := m.Regions[ev.A]; r.Kind == ir.RLoop {
				b.push(tid, b.child(b.top(tid), NLoop, nil, r, r.Start))
			}
		case interp.EvExitRegion:
			if m.Regions[ev.A].Kind == ir.RLoop {
				n := b.pop(tid)
				n.Iters += int64(ev.Addr)
				n.Instrs += interp.UnpackI64(ev.Loc)
			}
		}
	}
}

// push enters construct n on thread tid's stack.
func (b *Builder) push(tid int32, n *Node) {
	n.Entries++
	b.stack[tid] = append(b.stack[tid], n)
}

// pop leaves thread tid's innermost construct and returns it.
func (b *Builder) pop(tid int32) *Node {
	s := b.stack[tid]
	b.stack[tid] = s[:len(s)-1]
	return s[len(s)-1]
}

// Tree finalizes and returns the PET.
func (b *Builder) Tree(totalInstrs int64) *Tree {
	b.tree.Root.Instrs = totalInstrs
	return b.tree
}

// AttachDeps annotates each node with the number of merged dependences
// whose sink line falls within the node's static span, producing the
// "comprehensive tree of dependences" used for pattern detection.
func (t *Tree) AttachDeps(sinks map[ir.Loc]int64) {
	for _, n := range t.Nodes {
		var start, end ir.Loc
		switch {
		case n.Kind == NLoop:
			start, end = n.Region.Start, n.Region.End
		case n.Kind == NFunc && n.Func != nil:
			start, end = n.Func.Loc, n.Func.EndLoc
		default:
			continue
		}
		for loc, c := range sinks {
			if loc.File == start.File && loc.Line >= start.Line && loc.Line <= end.Line {
				n.Deps += c
			}
		}
	}
}

// Render pretty-prints the PET, one node per line, as in Figure 2.6.
func (t *Tree) Render() string {
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		ind := strings.Repeat("  ", depth)
		switch n.Kind {
		case NFunc:
			name := "<root>"
			if n.Func != nil {
				name = n.Func.Name
			}
			fmt.Fprintf(&sb, "%s%s %s instrs=%d entries=%d deps=%d\n",
				ind, n.Kind, name, n.Instrs, n.Entries, n.Deps)
		case NLoop:
			fmt.Fprintf(&sb, "%sloop %s iters=%d instrs=%d entries=%d deps=%d\n",
				ind, n.Loc, n.Iters, n.Instrs, n.Entries, n.Deps)
		}
		children := append([]*Node{}, n.Children...)
		sort.Slice(children, func(i, j int) bool { return children[i].ID < children[j].ID })
		for _, c := range children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return sb.String()
}
