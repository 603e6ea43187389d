package remote_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// FuzzDecode asserts the decoder's two contracts on arbitrary bytes:
// it never panics, and anything it accepts re-encodes canonically —
// Encode(Decode(x)) is a fixed point of the codec (Decode may accept
// non-minimal varint spellings, so x itself need not be canonical) — and
// the identity law on top: the content hash of an accepted module is the
// sha256 of that canonical encoding, whatever spelling it arrived in.
//
// The committed seed corpus (testdata/fuzz/FuzzDecode) holds encoded
// bundled workloads covering every statement and expression tag; f.Add
// seeds a few degenerate inputs on top.
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"histogram", "fib", "md5-mt"} {
		prog, err := workloads.Build(name, 1)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := ir.Encode(prog.M)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte("DPIR"))
	f.Add([]byte("DPIR\x01\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ir.Decode(data)
		if err != nil {
			return // rejected: that is a valid outcome for arbitrary bytes
		}
		enc, err := ir.Encode(m)
		if err != nil {
			t.Fatalf("decoded module does not re-encode: %v", err)
		}
		if m.ContentHash() != sha256.Sum256(enc) {
			t.Fatal("content hash is not the sha256 of the canonical encoding")
		}
		m2, err := ir.Decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		enc2, err := ir.Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("codec is not a fixed point: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}
