package profiler

// The loop-context table interns the active loop nest at the time of each
// access as a node in a tree, one node per dynamic loop iteration. An
// access's context is a single int32, and classifying a dependence as
// loop-carried reduces to a lowest-common-ancestor climb: the nodes just
// below the LCA on the two paths belong to the same loop region iff the
// dependence is carried by that loop (nodes are unique per iteration, so
// equal region implies different iterations). This is the execution-index
// idea Parwiz and Alchemist build full trees for, kept O(depth) here.

type ctxNode struct {
	parent int32
	region int32
	iter   int64
	depth  int32
}

const (
	ctxBlockBits = 16
	ctxBlockSize = 1 << ctxBlockBits
	ctxMaxBlocks = 1 << 14
)

// ctxTable is an append-only block list. A single writer (the routing
// thread) appends; a worker resolves only indices it read from a chunk. The
// single-writer / reader-after-acquire argument rests on the chunk hand-over
// alone — the SPSC push's release store of tail (or the locked queue's
// unlock) after the node and its block header were written, the pop's
// acquire load before the worker touches the chunk — since no record crosses
// to a worker by any other way.
type ctxTable struct {
	blocks [ctxMaxBlocks][]ctxNode
	n      int32
}

func (t *ctxTable) add(parent, region int32, iter int64) int32 {
	i := t.n
	b := i >> ctxBlockBits
	if t.blocks[b] == nil {
		t.blocks[b] = make([]ctxNode, ctxBlockSize)
	}
	d := int32(0)
	if parent >= 0 {
		d = t.node(parent).depth + 1
	}
	t.blocks[b][i&(ctxBlockSize-1)] = ctxNode{parent: parent, region: region, iter: iter, depth: d}
	t.n++
	return i
}

func (t *ctxTable) node(i int32) ctxNode {
	return t.blocks[i>>ctxBlockBits][i&(ctxBlockSize-1)]
}

// carriedBy determines whether two accesses with contexts a and b form a
// loop-carried dependence, returning the carrying region. Contexts of -1
// denote "outside any loop".
func (t *ctxTable) carriedBy(a, b int32) (int32, bool) {
	if a == b {
		return -1, false
	}
	lastA, lastB := int32(-1), int32(-1)
	da, db := int32(-1), int32(-1)
	if a >= 0 {
		da = t.node(a).depth
	}
	if b >= 0 {
		db = t.node(b).depth
	}
	for da > db {
		lastA, a = a, t.node(a).parent
		da--
	}
	for db > da {
		lastB, b = b, t.node(b).parent
		db--
	}
	for a != b {
		lastA, a = a, t.node(a).parent
		lastB, b = b, t.node(b).parent
	}
	if lastA < 0 || lastB < 0 {
		// One access's context is an ancestor of the other's: both are in
		// the same iteration of every shared loop.
		return -1, false
	}
	na, nb := t.node(lastA), t.node(lastB)
	if na.region == nb.region {
		// Same loop, necessarily different iterations (nodes are unique
		// per iteration): carried by this loop.
		return na.region, true
	}
	return -1, false
}
