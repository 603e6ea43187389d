// Package graph provides the graph algorithms the discovery phase relies
// on: Tarjan strongly-connected components and chain contraction (used to
// simplify CU graphs for MPMD task detection, Figure 4.5), topological
// sorting, and weighted critical-path computation (used by the ranking
// metrics of Section 4.3).
package graph

import "sort"

// Graph is a directed graph over vertices 0..N-1 with optional weights.
type Graph struct {
	N      int
	adj    [][]int
	radj   [][]int
	Weight []float64 // vertex weights (may be nil)
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n), radj: make([][]int, n)}
}

// AddEdge adds the directed edge u -> v (duplicates are ignored).
func (g *Graph) AddEdge(u, v int) {
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.radj[v] = append(g.radj[v], u)
}

// Preds returns the predecessor list of u.
func (g *Graph) Preds(u int) []int { return g.radj[u] }

// SCC computes strongly connected components with Tarjan's algorithm
// (iterative). It returns the component ID of every vertex and the number
// of components. Component IDs are assigned in reverse topological order.
func (g *Graph) SCC() (comp []int, ncomp int) {
	const unvisited = -1
	index := make([]int, g.N)
	low := make([]int, g.N)
	onStack := make([]bool, g.N)
	comp = make([]int, g.N)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	next := 0

	type fr struct {
		v, ei int
	}
	for root := 0; root < g.N; root++ {
		if index[root] != unvisited {
			continue
		}
		work := []fr{{root, 0}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					work = append(work, fr{w, 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, ncomp
}

// Condense returns the condensation DAG of g (one vertex per SCC), with
// vertex weights summed per component. The returned mapping is vertex ->
// component.
func (g *Graph) Condense() (*Graph, []int) {
	comp, n := g.SCC()
	dag := New(n)
	dag.Weight = make([]float64, n)
	for v := 0; v < g.N; v++ {
		if g.Weight != nil {
			dag.Weight[comp[v]] += g.Weight[v]
		}
		for _, w := range g.adj[v] {
			if comp[v] != comp[w] {
				dag.AddEdge(comp[v], comp[w])
			}
		}
	}
	return dag, comp
}

// Chains contracts maximal chains of the DAG: sequences v1 -> v2 -> ... in
// which every interior vertex has exactly one predecessor and one
// successor. It returns the chain ID of each vertex and the chains in
// topological member order — the second contraction step of Figure 4.5.
func (g *Graph) Chains() (chainOf []int, chains [][]int) {
	order, ok := g.Topo()
	if !ok {
		// Cyclic graph: each vertex is its own chain.
		chainOf = make([]int, g.N)
		for v := 0; v < g.N; v++ {
			chainOf[v] = v
			chains = append(chains, []int{v})
		}
		return chainOf, chains
	}
	chainOf = make([]int, g.N)
	for i := range chainOf {
		chainOf[i] = -1
	}
	for _, v := range order {
		if chainOf[v] != -1 {
			continue
		}
		chain := []int{v}
		cur := v
		for {
			if len(g.adj[cur]) != 1 {
				break
			}
			next := g.adj[cur][0]
			if len(g.radj[next]) != 1 || chainOf[next] != -1 {
				break
			}
			chain = append(chain, next)
			cur = next
			chainOf[cur] = -2 // reserved
		}
		id := len(chains)
		for _, u := range chain {
			chainOf[u] = id
		}
		chains = append(chains, chain)
	}
	return chainOf, chains
}

// ContractChains returns the graph with every chain collapsed into one
// vertex (weights summed), plus the vertex -> chain mapping.
func (g *Graph) ContractChains() (*Graph, []int) {
	chainOf, chains := g.Chains()
	out := New(len(chains))
	out.Weight = make([]float64, len(chains))
	for v := 0; v < g.N; v++ {
		if g.Weight != nil {
			out.Weight[chainOf[v]] += g.Weight[v]
		}
		for _, w := range g.adj[v] {
			if chainOf[v] != chainOf[w] {
				out.AddEdge(chainOf[v], chainOf[w])
			}
		}
	}
	return out, chainOf
}

// Topo returns a topological order of g and whether g is acyclic.
func (g *Graph) Topo() ([]int, bool) {
	indeg := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		for range g.radj[v] {
			indeg[v]++
		}
	}
	var queue []int
	for v := 0; v < g.N; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	sort.Ints(queue)
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order, len(order) == g.N
}

// CriticalPath returns the weight of the heaviest path through the DAG
// using vertex weights (1.0 per vertex if Weight is nil), plus the total
// weight. Work / critical-path is the parallelism bound of Section 1.2.1.
func (g *Graph) CriticalPath() (cp float64, total float64) {
	order, ok := g.Topo()
	if !ok {
		// Cyclic: the whole graph is sequential.
		for v := 0; v < g.N; v++ {
			total += g.w(v)
		}
		return total, total
	}
	dist := make([]float64, g.N)
	for _, v := range order {
		w := g.w(v)
		total += w
		best := 0.0
		for _, p := range g.radj[v] {
			if dist[p] > best {
				best = dist[p]
			}
		}
		dist[v] = best + w
		if dist[v] > cp {
			cp = dist[v]
		}
	}
	return cp, total
}

func (g *Graph) w(v int) float64 {
	if g.Weight == nil {
		return 1
	}
	return g.Weight[v]
}

// Components returns the weakly connected components of g, each as a
// sorted vertex list — independent subgraphs that can run in parallel.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N)
	var comps [][]int
	for v := 0; v < g.N; v++ {
		if seen[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, w := range g.adj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
			for _, w := range g.radj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
