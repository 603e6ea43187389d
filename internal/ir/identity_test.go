package ir_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// TestModuleIdentity holds the one module identity to its laws over the
// whole registry at two scales: the content hash is the sha256 of the
// canonical encoding, a module that crossed the wire keeps it, and the
// encoding is byte for byte what testdata/codec_golden.txt recorded
// ("name@scale length sha256" per line, written at the commit before the
// codec moved into this package and lost its pointer maps).
func TestModuleIdentity(t *testing.T) {
	var got bytes.Buffer
	for _, scale := range []int{1, 2} {
		for _, name := range workloads.Names("") {
			m := workloads.MustBuild(name, scale).M
			enc, err := ir.Encode(m)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, scale, err)
			}
			sum := sha256.Sum256(enc)
			if m.ContentHash() != sum {
				t.Errorf("%s@%d: content hash is not sha256(Encode)", name, scale)
			}
			dec, err := ir.Decode(enc)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, scale, err)
			}
			if dec.ContentHash() != sum {
				t.Errorf("%s@%d: content hash changed across Decode(Encode)", name, scale)
			}
			fmt.Fprintf(&got, "%s@%d %d %x\n", name, scale, len(enc), sum)
		}
	}
	want, err := os.ReadFile("testdata/codec_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire bytes changed; bump version and re-record testdata/codec_golden.txt if intended.\ngot:\n%s", got.Bytes())
	}
}

// undefinedForward builds a module the codec refuses: it declares a
// function that is never defined (and never called).
func undefinedForward() *ir.Module {
	b := ir.NewBuilder("forward")
	b.Forward("never", false)
	sum := b.Global("sum", ir.F64)
	mb := b.Func("main")
	mb.For("i", ir.CI(0), ir.CI(10), ir.CI(1), func(i *ir.Var) {
		mb.Set(sum, ir.Add(ir.V(sum), ir.V(i)))
	})
	return b.Build(mb.Done())
}

// TestUnencodableModuleHashesPerInstance: a module without canonical bytes
// still has an identity — its own. Two builds must not share a digest (one
// would be served the other's compiled program on no evidence), each digest
// is stable, and both compile through the shared cache and run.
func TestUnencodableModuleHashesPerInstance(t *testing.T) {
	a, b := undefinedForward(), undefinedForward()
	if _, err := ir.Encode(a); err == nil {
		t.Fatal("a module with an undefined forward encoded")
	}
	if a.ContentHash() == b.ContentHash() {
		t.Fatal("two unencodable instances share a digest")
	}
	if a.ContentHash() != a.ContentHash() {
		t.Fatal("an instance's digest is not stable")
	}
	for _, m := range []*ir.Module{a, b} {
		it := interp.New(m, nil)
		it.Run()
		if it.CompileHit || it.Stores == 0 {
			t.Fatalf("compile hit %v (want a compilation of its own), %d stores", it.CompileHit, it.Stores)
		}
	}
}

var sink [32]byte

// BenchmarkContentHash and BenchmarkEncode time identity and encoding on a
// fresh CG@1 each iteration (the hash is memoized per instance).
func BenchmarkContentHash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := workloads.MustBuild("CG", 1).M
		b.StartTimer()
		sink = m.ContentHash()
	}
}

func BenchmarkEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := workloads.MustBuild("CG", 1).M
		b.StartTimer()
		enc, err := ir.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		sink[0] = enc[0]
	}
}

// BenchmarkDecode decodes the scale-1 encoding of every registry workload
// per iteration; ns/module is the mean over modules.
func BenchmarkDecode(b *testing.B) {
	var encs [][]byte
	for _, name := range workloads.Names("") {
		enc, err := ir.Encode(workloads.MustBuild(name, 1).M)
		if err != nil {
			b.Fatal(err)
		}
		encs = append(encs, enc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, enc := range encs {
			if _, err := ir.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(encs)), "ns/module")
}
