package ir

import (
	"strings"
	"testing"
)

// capModule builds a module with main as its entry; fill adds what the cap
// under test counts.
func capModule(fill func(b *Builder, main *FuncBuilder)) *Module {
	b := NewBuilder("caps")
	mb := b.Func("main")
	fill(b, mb)
	return b.Build(mb.Done())
}

// sizedModule builds a module whose encoding is exactly size bytes: globals
// with names of 128 to maxNameLen bytes, grown one byte at a time where the
// length prefix stays two bytes wide.
func sizedModule(t *testing.T, size int) *Module {
	m := capModule(func(b *Builder, _ *FuncBuilder) {
		for i := 0; i < size/250; i++ {
			b.Global(strings.Repeat("g", 128), F64)
		}
	})
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	short := size - len(enc)
	for _, v := range m.Vars {
		grow := min(short, maxNameLen-len(v.Name))
		v.Name += strings.Repeat("g", grow)
		short -= grow
	}
	if short != 0 {
		t.Fatalf("cannot pad a module to %d bytes", size)
	}
	return m
}

// TestEncodeEnforcesDecodeCaps holds Encode to the caps Decode enforces,
// for every cap a Builder can reach: at the cap a module encodes and its
// bytes decode; one past it, Encode refuses rather than produce bytes
// Decode would reject.
func TestEncodeEnforcesDecodeCaps(t *testing.T) {
	name := func(n int) string { return strings.Repeat("n", n) }
	cases := []struct {
		what  string
		cap   int
		build func(n int) *Module
	}{
		{"module name", maxNameLen, func(n int) *Module {
			m := capModule(func(*Builder, *FuncBuilder) {})
			m.Name = name(n)
			return m
		}},
		{"file name", maxNameLen, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) { b.File(name(n)) })
		}},
		{"var name", maxNameLen, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) { b.Global(name(n), F64) })
		}},
		{"files", maxFiles, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) {
				for len(b.m.Files) < n {
					b.File("f.c")
				}
			})
		}},
		{"funcs", maxFuncs, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) {
				for len(b.m.Funcs) < n {
					b.Func("f").Done()
				}
			})
		}},
		{"regions", maxRegions, func(n int) *Module {
			return capModule(func(b *Builder, mb *FuncBuilder) {
				for len(b.m.Regions) < n {
					mb.While(CI(0), func() {})
				}
			})
		}},
		{"vars", maxVars, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) {
				for len(b.m.Vars) < n {
					b.Global("g", F64)
				}
			})
		}},
		{"elems of one var", maxTotalElems, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) { b.GlobalArray("a", F64, n) })
		}},
		{"elems of all vars", maxTotalElems, func(n int) *Module {
			return capModule(func(b *Builder, _ *FuncBuilder) {
				b.GlobalArray("a", F64, n/2)
				b.GlobalArray("b", F64, n-n/2)
			})
		}},
		{"nodes", maxNodes, func(n int) *Module {
			return capModule(func(_ *Builder, mb *FuncBuilder) {
				for i := 1; i < n; i++ { // main's body block is the first node
					mb.Sync()
				}
			})
		}},
		{"statement depth", maxDepth, func(n int) *Module {
			return capModule(func(_ *Builder, mb *FuncBuilder) {
				var nest func(k int)
				nest = func(k int) {
					if k == 0 {
						mb.Sync()
						return
					}
					mb.Locked(0, func() { nest(k - 1) })
				}
				nest(n - 1) // a statement in k nested locks sits at depth k+1
			})
		}},
		{"expression depth", maxDepth, func(n int) *Module {
			return capModule(func(b *Builder, mb *FuncBuilder) {
				var x Expr = CI(1)
				for i := 1; i < n; i++ { // the assignment's source is at depth 1
					x = Neg(x)
				}
				mb.Set(b.Global("g", F64), x)
			})
		}},
		{"mutex id", maxMutexID, func(n int) *Module {
			return capModule(func(_ *Builder, mb *FuncBuilder) { mb.Locked(n, func() {}) })
		}},
		{"encoded bytes", MaxModuleBytes, func(n int) *Module { return sizedModule(t, n) }},
	}
	for _, c := range cases {
		at, past := c.build(c.cap), c.build(c.cap+1)
		enc, err := Encode(at)
		if err != nil {
			t.Errorf("%s at the cap %d: Encode: %v", c.what, c.cap, err)
		} else if _, err := Decode(enc); err != nil {
			t.Errorf("%s at the cap %d: Decode(Encode): %v", c.what, c.cap, err)
		}
		if enc, err := Encode(past); err == nil {
			_, err := Decode(enc)
			t.Errorf("%s past the cap %d: Encode succeeded (Decode(Encode): %v)", c.what, c.cap, err)
		}
	}
}
