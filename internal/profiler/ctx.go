package profiler

import "math/bits"

// The loop-context table interns the active loop nest at the time of each
// access as a node in a tree, one node per dynamic loop iteration. An
// access's context is a single int32, and classifying a dependence as
// loop-carried reduces to a lowest-common-ancestor climb: the nodes just
// below the LCA on the two paths belong to the same loop region iff the
// dependence is carried by that loop (nodes are unique per iteration, so
// equal region implies different iterations). This is the execution-index
// idea Parwiz and Alchemist build full trees for, kept O(depth) here.

// ctxNode is one dynamic loop iteration: 12 bytes, so a tight loop's fresh
// node per iteration costs a fifth of a cache line.
type ctxNode struct {
	parent int32
	region int32
	depth  int32
}

// Block k of the table holds ctxBlock0<<k nodes, so node i lives in the block
// numbered by the bit length of i+ctxBlock0: 22 blocks cover every int32
// index, the first is 12 KB, and a table never holds less than half of what
// it allocated.
const (
	ctxBlock0Bits = 10
	ctxBlock0     = 1 << ctxBlock0Bits
	ctxBlocks     = 32 - ctxBlock0Bits
)

// ctxTable is an append-only list of geometrically growing blocks. A block,
// once allocated, never moves and its directory entry is never rewritten,
// which is what lets workers read the table without a lock: a single writer
// (the routing thread) appends; a worker resolves only indices it read from a
// chunk. The single-writer / reader-after-acquire argument rests on the chunk
// hand-over alone — the SPSC push's release store of tail (or the locked
// queue's unlock) after the node and its block's directory entry were
// written, the pop's acquire load before the worker touches the chunk — since
// no record crosses to a worker by any other way.
type ctxTable struct {
	blocks [ctxBlocks][]ctxNode
	n      int32
}

// ctxSlot locates node i: block k, offset off within it.
func ctxSlot(i int32) (k int, off uint32) {
	j := uint32(i) + ctxBlock0
	k = bits.Len32(j) - ctxBlock0Bits - 1
	return k, j - ctxBlock0<<k
}

// add appends the context of one iteration of loop region entered from
// context parent (-1: outside any loop).
func (t *ctxTable) add(parent, region int32) int32 {
	i := t.n
	k, off := ctxSlot(i)
	if off == 0 {
		t.blocks[k] = make([]ctxNode, ctxBlock0<<k)
	}
	d := int32(0)
	if parent >= 0 {
		d = t.node(parent).depth + 1
	}
	t.blocks[k][off] = ctxNode{parent: parent, region: region, depth: d}
	t.n++
	return i
}

// node resolves context i (0 <= i < n). The pointer stays valid, and what it
// points to unchanged, for the table's lifetime.
func (t *ctxTable) node(i int32) *ctxNode {
	k, off := ctxSlot(i)
	return &t.blocks[k][off]
}

// carriedBy returns the loop region that carries a dependence between two
// accesses with contexts a and b, or -1 when it is not loop-carried (-1 as a
// context denotes "outside any loop", an ancestor of everything).
// It brings the deeper context up to the other's depth and then both up
// until they have one parent: the nodes reached are the two children of the
// lowest common ancestor, or one node if a context was an ancestor of the
// other. In a loop body the two are siblings to begin with — iterations of
// loops entered from one place — and neither climb takes a step: two node
// reads and two compares decide. No result is remembered: a context is new
// every iteration, so a pair does not come back, and nests here are at most
// seven deep.
func (t *ctxTable) carriedBy(a, b int32) int32 {
	if a < 0 || b < 0 {
		return -1
	}
	na, nb := t.node(a), t.node(b)
	for na.depth > nb.depth {
		na = t.node(na.parent)
	}
	for nb.depth > na.depth {
		nb = t.node(nb.parent)
	}
	for na.parent != nb.parent {
		na, nb = t.node(na.parent), t.node(nb.parent)
	}
	// Blocks never move, so one node is one pointer. Two nodes of one region
	// under one parent are different iterations of one loop: carried by it.
	if na != nb && na.region == nb.region {
		return na.region
	}
	return -1
}
