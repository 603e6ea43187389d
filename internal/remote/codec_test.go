package remote

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// TestCodecRoundTripRegistry encodes every bundled workload, decodes it,
// and checks (a) the decoded module prints identically to the original
// (deep structural equality) and (b) re-encoding the decoded module
// reproduces the exact bytes (the codec is a fixed point on its own
// output).
func TestCodecRoundTripRegistry(t *testing.T) {
	for _, info := range workloads.List("") {
		prog, err := workloads.Build(info.Name, 1)
		if err != nil {
			t.Fatalf("build %s: %v", info.Name, err)
		}
		enc, err := ir.Encode(prog.M)
		if err != nil {
			t.Fatalf("encode %s: %v", info.Name, err)
		}
		dec, err := ir.Decode(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", info.Name, err)
		}
		if got, want := ir.Print(dec), ir.Print(prog.M); got != want {
			t.Fatalf("%s: decoded module prints differently:\n got: %.400s\nwant: %.400s",
				info.Name, got, want)
		}
		enc2, err := ir.Encode(dec)
		if err != nil {
			t.Fatalf("re-encode %s: %v", info.Name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: re-encoded bytes differ (len %d vs %d)", info.Name, len(enc), len(enc2))
		}
		if len(enc) > ir.MaxModuleBytes {
			t.Fatalf("%s: encoded size %d exceeds default byte limit", info.Name, len(enc))
		}
	}
}

// TestCodecPreservesStructure spot-checks the cross-reference wiring the
// printer cannot see: region tree shape, statement back-pointers, and
// function/variable ownership.
func TestCodecPreservesStructure(t *testing.T) {
	prog, err := workloads.Build("CG", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ir.Encode(prog.M)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Regions) != len(prog.M.Regions) {
		t.Fatalf("region count %d, want %d", len(dec.Regions), len(prog.M.Regions))
	}
	for i, r := range dec.Regions {
		o := prog.M.Regions[i]
		if r.Kind != o.Kind || r.Start != o.Start || r.End != o.End {
			t.Fatalf("region %d mismatch: %v vs %v", i, r, o)
		}
		if (r.Parent == nil) != (o.Parent == nil) {
			t.Fatalf("region %d parent nil-ness differs", i)
		}
		if r.Parent != nil && r.Parent.ID != o.Parent.ID {
			t.Fatalf("region %d parent %d, want %d", i, r.Parent.ID, o.Parent.ID)
		}
		if len(r.Children) != len(o.Children) {
			t.Fatalf("region %d has %d children, want %d", i, len(r.Children), len(o.Children))
		}
		if r.Kind != ir.RFunc && r.Stmt == nil {
			t.Fatalf("region %d lost its statement", i)
		}
		if r.Func == nil || r.Func.Name != o.Func.Name {
			t.Fatalf("region %d func mismatch", i)
		}
	}
	for i, v := range dec.Vars {
		o := prog.M.Vars[i]
		if v.ID != i || v.Name != o.Name || v.Kind != o.Kind || v.Elems != o.Elems ||
			v.ByValue != o.ByValue || v.Heap != o.Heap || v.Decl != o.Decl {
			t.Fatalf("var %d (%s) mismatch", i, o.Name)
		}
		if (v.DeclRegion == nil) != (o.DeclRegion == nil) {
			t.Fatalf("var %s decl-region nil-ness differs", o.Name)
		}
		if v.DeclRegion != nil && v.DeclRegion.ID != o.DeclRegion.ID {
			t.Fatalf("var %s decl region %d, want %d", o.Name, v.DeclRegion.ID, o.DeclRegion.ID)
		}
	}
	if dec.Main == nil || dec.Main.Name != prog.M.Main.Name {
		t.Fatal("main function not preserved")
	}
	for i, f := range dec.Funcs {
		o := prog.M.Funcs[i]
		if len(f.Locals) != len(o.Locals) || len(f.Params) != len(o.Params) {
			t.Fatalf("func %s param/local counts differ", o.Name)
		}
	}
}

// TestEncodeDeterministic encodes the same workload twice from scratch:
// two structurally identical builds must yield identical bytes.
func TestEncodeDeterministic(t *testing.T) {
	a, err := workloads.Build("kmeans", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.Build("kmeans", 2)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := ir.Encode(a.M)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ir.Encode(b.M)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("two builds of the same workload encode differently")
	}
}

// TestDecodeRejects exercises the strict-validation paths on malformed
// and hostile inputs.
func TestDecodeRejects(t *testing.T) {
	prog, err := workloads.Build("histogram", 1)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := ir.Encode(prog.M)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"bad magic", []byte("NOPE1234"), "bad magic"},
		{"bad version", append([]byte("DPIR"), 0xff, 0x01), "unsupported wire version"},
		{"truncated", valid[:len(valid)/2], ""},
		{"trailing garbage", append(append([]byte{}, valid...), 1, 2, 3), "trailing bytes"},
	}
	for _, tc := range cases {
		m, err := ir.Decode(tc.data)
		if err == nil {
			t.Fatalf("%s: decode succeeded (module %v)", tc.name, m.Name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Flipping any single byte must never panic; it may still decode (a
	// flipped bit in a float constant is a valid different module).
	for i := range valid {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0x41
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d flip: decode panicked: %v", i, r)
				}
			}()
			ir.Decode(mut)
		}()
	}
}

// TestDecodeLimits holds the caps at their real values: Decode accepts a
// module at the footprint, payload and name-length cap and rejects one a
// step past it. The past-the-cap inputs are spliced by hand, since Encode
// refuses to write them.
func TestDecodeLimits(t *testing.T) {
	const maxElems, maxBytes, maxName = 8 << 20, ir.MaxModuleBytes, 256
	accept := func(what string, data []byte) {
		t.Helper()
		if _, err := ir.Decode(data); err != nil {
			t.Fatalf("%s at the cap: %v", what, err)
		}
	}
	reject := func(what string, data []byte, want string) {
		t.Helper()
		if _, err := ir.Decode(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s past the cap: error %v, want one mentioning %q", what, err, want)
		}
	}

	// Footprint: one array of maxElems elements, then its count respelled
	// one higher (both varints are four bytes wide).
	b := ir.NewBuilder("big")
	b.GlobalArray("huge", ir.F64, maxElems)
	fb := b.Func("main")
	fb.Return(nil)
	enc, err := ir.Encode(b.Build(fb.Done()))
	if err != nil {
		t.Fatal(err)
	}
	accept("footprint", enc)
	at, past := binary.AppendUvarint(nil, maxElems), binary.AppendUvarint(nil, maxElems+1)
	if bytes.Count(enc, at) != 1 || len(at) != len(past) {
		t.Fatal("cannot find the element count in the encoding")
	}
	reject("footprint", bytes.Replace(enc, at, past, 1), "elems")

	// Payload: a valid encoding one byte short of the cap, padded by
	// spelling the module name's one-byte length varint (after "DPIR" and
	// the version) in two bytes, which Decode accepts.
	pad := func(enc []byte) []byte {
		if enc[5] >= 0x80 {
			t.Fatal("module name length is not a one-byte varint")
		}
		return append(append(append([]byte{}, enc[:5]...), enc[5]|0x80, 0), enc[6:]...)
	}
	accept("payload", pad(encodingOfSize(t, maxBytes-1)))
	reject("payload", pad(encodingOfSize(t, maxBytes)), "exceeds limit")

	// Name length: the module name is the first string of the encoding.
	m := workloads.MustBuild("fib", 1).M
	m.Name = strings.Repeat("n", maxName)
	if enc, err = ir.Encode(m); err != nil {
		t.Fatal(err)
	}
	accept("name length", enc)
	head := binary.AppendUvarint([]byte("DPIR\x01"), maxName+1)
	long := append(append(head, strings.Repeat("n", maxName+1)...), enc[5+2+maxName:]...)
	reject("name length", long, "string length")
}

// encodingOfSize encodes a module of globals whose names are grown until
// the encoding is exactly size bytes (a name of 128 to 256 bytes keeps a
// two-byte length prefix, so each added byte adds one to the total).
func encodingOfSize(t *testing.T, size int) []byte {
	b := ir.NewBuilder("pad")
	for i := 0; i < size/250; i++ {
		b.Global(strings.Repeat("g", 128), ir.F64)
	}
	fb := b.Func("main")
	fb.Return(nil)
	m := b.Build(fb.Done())
	enc, err := ir.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	short := size - len(enc)
	for _, v := range m.Vars {
		grow := min(short, 256-len(v.Name))
		v.Name += strings.Repeat("g", grow)
		short -= grow
	}
	if enc, err = ir.Encode(m); err != nil || len(enc) != size {
		t.Fatalf("padded encoding: %d bytes, %v; want %d bytes", len(enc), err, size)
	}
	return enc
}

// TestDecodeElemsOverflow splices an element count >= 2^63 into an
// otherwise valid encoding. Cast to int64 such a value is negative, so a
// signed comparison would wave it past both footprint caps and let the
// interpreter size its address space from an attacker-chosen bound; the
// decoder must compare in uint64 and reject.
func TestDecodeElemsOverflow(t *testing.T) {
	// A sentinel array length whose varint encoding we can find (exactly
	// once, by construction of the workload) in the encoded stream.
	const sentinel = 7654321
	b := ir.NewBuilder("overflow")
	b.GlobalArray("huge", ir.F64, sentinel)
	fb := b.Func("main")
	fb.Return(nil)
	enc, err := ir.Encode(b.Build(fb.Done()))
	if err != nil {
		t.Fatal(err)
	}
	var buf [binary.MaxVarintLen64]byte
	pat := buf[:binary.PutUvarint(buf[:], sentinel)]
	if n := bytes.Count(enc, pat); n != 1 {
		t.Fatalf("sentinel varint appears %d times in the encoding, want 1", n)
	}
	at := bytes.Index(enc, pat)
	for _, evil := range []uint64{1 << 63, math.MaxUint64} {
		ev := buf[:binary.PutUvarint(buf[:], evil)]
		mut := append(append(append([]byte{}, enc[:at]...), ev...), enc[at+len(pat):]...)
		m, err := ir.Decode(mut)
		if err == nil {
			t.Fatalf("elems %d: decode accepted module %v", evil, m.Name)
		}
		if !strings.Contains(err.Error(), "elems") {
			t.Fatalf("elems %d: error %q is not the footprint rejection", evil, err)
		}
	}
}
