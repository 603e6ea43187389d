package bytecode

import (
	"sync"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// buildCounted builds a module dominated by a constant-bound counted loop
// accumulating into a global through a constant-operand binop — the shape
// the superinstruction table was selected for.
func buildCounted(bound int64) *ir.Module {
	b := ir.NewBuilder("counted")
	sum := b.Global("sum", ir.F64)
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(bound), ir.CI(1), func(i *ir.Var) {
		mb.Set(sum, ir.Add(ir.V(sum), ir.CI(3)))
	})
	return b.Build(mb.Done())
}

// TestModuleHashStability: the content hash is a function of module
// structure alone — two independent builds of the same workload hash
// identically, across the whole registry, while distinct workloads and
// single-constant edits diverge.
func TestModuleHashStability(t *testing.T) {
	seen := map[[32]byte]string{}
	for _, name := range workloads.Names("") {
		a := ModuleHash(workloads.MustBuild(name, 1).M)
		b := ModuleHash(workloads.MustBuild(name, 1).M)
		if a != b {
			t.Errorf("%s: two builds of the same workload hash differently", name)
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("%s and %s share a content hash", name, prev)
		}
		seen[a] = name
	}
	// Scale changes the built module, so the hash must follow.
	if ModuleHash(workloads.MustBuild("CG", 1).M) == ModuleHash(workloads.MustBuild("CG", 2).M) {
		t.Error("CG@1 and CG@2 share a content hash")
	}
	if ModuleHash(buildCounted(10)) == ModuleHash(buildCounted(11)) {
		t.Error("single-constant edit did not change the content hash")
	}
}

// TestCompileFusesCountedLoop: the canonical counted loop compiles into
// the fused header and increment superinstructions, and the fusion
// counter records the eliminated instructions.
func TestCompileFusesCountedLoop(t *testing.T) {
	p := Compile(buildCounted(10))
	var ops = map[Opcode]int{}
	for _, in := range p.Code {
		ops[in.Op]++
	}
	if ops[OpForHeadC] == 0 {
		t.Errorf("no OpForHeadC in compiled counted loop; opcode mix: %v", ops)
	}
	if ops[OpForIncC] == 0 {
		t.Errorf("no OpForIncC in compiled counted loop; opcode mix: %v", ops)
	}
	if ops[OpBinC] == 0 {
		t.Errorf("no OpBinC for the constant-operand add; opcode mix: %v", ops)
	}
	if p.Fused == 0 {
		t.Error("fusion eliminated no instructions on the canonical counted loop")
	}
}

// TestCompileRegistry: every bundled workload compiles; the resulting
// programs are well formed (entries in range, undefined functions marked,
// globals layout non-empty) and fusion fires broadly.
func TestCompileRegistry(t *testing.T) {
	totalFused := 0
	for _, name := range workloads.Names("") {
		m := workloads.MustBuild(name, 1).M
		p := Compile(m)
		if len(p.Funcs) != len(m.Funcs) {
			t.Fatalf("%s: %d FuncInfos for %d functions", name, len(p.Funcs), len(m.Funcs))
		}
		for i, fi := range p.Funcs {
			if m.Funcs[i].Body == nil {
				if fi.Entry != -1 {
					t.Errorf("%s: undefined %s has entry %d, want -1", name, m.Funcs[i].Name, fi.Entry)
				}
				continue
			}
			if fi.Entry < 0 || fi.Entry >= int32(len(p.Code)) {
				t.Errorf("%s: %s has entry %d outside the %d instructions",
					name, m.Funcs[i].Name, fi.Entry, len(p.Code))
			}
			if fi.MaxStack < 0 || fi.NSlots < int32(len(m.Funcs[i].Params)) {
				t.Errorf("%s: %s has MaxStack %d, NSlots %d for %d params",
					name, m.Funcs[i].Name, fi.MaxStack, fi.NSlots, len(m.Funcs[i].Params))
			}
		}
		totalFused += p.Fused
	}
	if totalFused == 0 {
		t.Error("fusion eliminated no instructions across the entire registry")
	}
}

// TestCacheHitMissEvict: the compile cache memoizes by content (rebuilt
// modules hit), bounds its entries by LRU, and reports compile time only
// on misses.
func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(2)
	m1 := workloads.MustBuild("CG", 1).M

	p1, hit, dur := c.Get(m1)
	if hit || dur <= 0 {
		t.Fatalf("first Get: hit=%v dur=%v, want a timed miss", hit, dur)
	}
	// A *rebuilt* content-identical module hits and returns the same Program.
	p2, hit, dur := c.Get(workloads.MustBuild("CG", 1).M)
	if !hit || dur != 0 || p2 != p1 {
		t.Fatalf("rebuilt module: hit=%v dur=%v same=%v, want untimed hit on the same Program", hit, dur, p2 == p1)
	}

	c.Get(workloads.MustBuild("EP", 1).M)
	c.Get(workloads.MustBuild("kmeans", 1).M) // cap 2: evicts the LRU entry (CG)
	if _, _, n := c.Stats(); n != 2 {
		t.Fatalf("%d entries, want 2", n)
	}
	if _, hit, _ := c.Get(m1); hit {
		t.Error("evicted module still hit the cache")
	}
	hits, misses, entries := c.Stats()
	if hits != 1 || misses != 4 || entries != 2 {
		t.Errorf("stats = %d hits, %d misses, %d entries; want 1/4/2", hits, misses, entries)
	}
}

// TestCacheSingleflight: concurrent requests for one module compile once
// and all receive the same Program.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0)
	m := workloads.MustBuild("CG", 1).M
	const n = 16
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], _, _ = c.Get(m)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different Program", i)
		}
	}
	hits, misses, entries := c.Stats()
	if misses != 1 || hits != n-1 || entries != 1 {
		t.Errorf("stats = %d hits, %d misses, %d entries; want %d/1/1", hits, misses, entries, n-1)
	}
}
