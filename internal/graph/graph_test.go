package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSCCSimpleCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	comp, n := g.SCC()
	if n != 2 {
		t.Fatalf("ncomp = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("cycle vertices in different components: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Errorf("vertex 3 merged into cycle: %v", comp)
	}
}

func TestSCCSelfLoopsAndIsolated(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp = %d, want 3 (self-loop is its own SCC)", n)
	}
	_ = comp
}

// TestCondenseIsDAG: the condensation of any random graph is acyclic.
func TestCondenseIsDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		dag, comp := g.Condense()
		if _, ok := dag.Topo(); !ok {
			t.Fatalf("trial %d: condensation has a cycle", trial)
		}
		// Every original edge maps to same component or a DAG edge.
		for v := 0; v < n; v++ {
			for _, w := range g.adj[v] {
				if comp[v] != comp[w] && !slices.Contains(dag.adj[comp[v]], comp[w]) {
					t.Fatalf("trial %d: edge %d->%d lost in condensation", trial, v, w)
				}
			}
		}
	}
}

func TestChainsLinear(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	chainOf, chains := g.Chains()
	if len(chains) != 1 {
		t.Fatalf("linear chain contracted to %d chains: %v", len(chains), chains)
	}
	for v := 0; v < 4; v++ {
		if chainOf[v] != 0 {
			t.Errorf("vertex %d not in chain 0", v)
		}
	}
}

func TestChainsDiamond(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3: the branches are separate chains.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	_, chains := g.Chains()
	if len(chains) != 4 {
		t.Fatalf("diamond contracted to %d chains, want 4: %v", len(chains), chains)
	}
}

// TestContractChainsPreservesReachability on random DAGs.
func TestContractChainsPreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(15)
		g := New(n)
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				g.AddEdge(a, b) // forward edges only: a DAG
			}
		}
		cg, chainOf := g.ContractChains()
		reach := func(gr *Graph, from, to int) bool {
			seen := make([]bool, gr.N)
			stack := []int{from}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if v == to {
					return true
				}
				if seen[v] {
					continue
				}
				seen[v] = true
				stack = append(stack, gr.adj[v]...)
			}
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				orig := reach(g, a, b)
				contracted := chainOf[a] == chainOf[b] || reach(cg, chainOf[a], chainOf[b])
				if orig && !contracted {
					t.Fatalf("trial %d: reachability %d->%d lost", trial, a, b)
				}
			}
		}
	}
}

func TestTopoDetectsCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, ok := g.Topo(); ok {
		t.Fatal("cycle not detected")
	}
}

func TestCriticalPath(t *testing.T) {
	// Diamond with weights: cp = 1 + 5 + 1 = 7, total = 1+5+2+1 = 9.
	g := New(4)
	g.Weight = []float64{1, 5, 2, 1}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cp, total := g.CriticalPath()
	if cp != 7 || total != 9 {
		t.Fatalf("cp=%f total=%f, want 7, 9", cp, total)
	}
}

// TestCriticalPathBounds: for any DAG, max vertex weight <= cp <= total.
func TestCriticalPathBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		g.Weight = make([]float64, n)
		maxW := 0.0
		for v := range g.Weight {
			g.Weight[v] = float64(1 + rng.Intn(10))
			if g.Weight[v] > maxW {
				maxW = g.Weight[v]
			}
		}
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				g.AddEdge(a, b)
			}
		}
		cp, total := g.CriticalPath()
		return cp >= maxW && cp <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3 groups", comps)
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if len(g.adj[0]) != 1 {
		t.Fatalf("duplicate edge stored: %v", g.adj[0])
	}
	if len(g.Preds(1)) != 1 {
		t.Fatalf("duplicate pred stored: %v", g.Preds(1))
	}
}

func TestSCCLargeChain(t *testing.T) {
	// A long chain must not overflow the iterative Tarjan.
	n := 100000
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	_, ncomp := g.SCC()
	if ncomp != n {
		t.Fatalf("chain SCC count = %d, want %d", ncomp, n)
	}
}
