package remote_test

import (
	"fmt"
	"strings"
	"testing"

	"discopop/internal/interp"
	"discopop/internal/ir"
	"discopop/internal/workloads"
)

// engineOutcome captures everything one engine run exposes to a caller:
// the return value and counters on success, or the panic message.
type engineOutcome struct {
	panicked bool
	msg      string
	ret      int64
	instrs   int64
	loads    int64
	stores   int64
}

func runBudgeted(m *ir.Module, opts ...interp.Option) (out engineOutcome) {
	opts = append(opts, interp.WithMaxInstrs(1<<16))
	it := interp.New(m, nil, opts...)
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.msg = fmt.Sprint(r)
		}
		out.instrs, out.loads, out.stores = it.Instrs, it.Loads, it.Stores
	}()
	out.ret = it.Run()
	return
}

// FuzzCompile drives the bytecode compiler and VM with every module the
// wire decoder accepts, and holds the VM to the tree walker's observable
// behavior: same return value, same instruction/load/store counters, and
// — when an input misbehaves — a panic in one engine iff the other
// panics too, with identical messages for the interpreter's own
// diagnostics. Runs are capped by the instruction budget so adversarial
// infinite loops terminate. The seed corpus mirrors FuzzDecode's
// (testdata/fuzz/FuzzCompile): encoded bundled workloads covering every
// statement tag, including multi-threaded ones.
func FuzzCompile(f *testing.F) {
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

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode twice: each engine needs its own module instance, since a
		// run panicking mid-flight may leave parked simulated threads
		// sharing the module's numbered state.
		mw, err := ir.Decode(data)
		if err != nil {
			return // rejected bytes: FuzzDecode's territory
		}
		mv, err := ir.Decode(data)
		if err != nil {
			t.Fatalf("second decode of accepted bytes failed: %v", err)
		}

		walk := runBudgeted(mw, interp.WithTreeWalk())
		vm := runBudgeted(mv)

		if walk.panicked != vm.panicked {
			t.Fatalf("panic divergence: walker panicked=%v (%q), vm panicked=%v (%q)",
				walk.panicked, walk.msg, vm.panicked, vm.msg)
		}
		if walk.panicked {
			// The interpreter's own diagnostics must match verbatim. Go
			// runtime panics (from pathological-but-accepted modules) are
			// compared only on the both-panic bit above: their texts encode
			// engine-internal indices.
			wi := strings.HasPrefix(walk.msg, "interp: ")
			vi := strings.HasPrefix(vm.msg, "interp: ")
			if wi != vi || (wi && walk.msg != vm.msg) {
				t.Fatalf("panic message divergence:\n  walker: %s\n  vm:     %s", walk.msg, vm.msg)
			}
			return
		}
		if walk.ret != vm.ret || walk.instrs != vm.instrs ||
			walk.loads != vm.loads || walk.stores != vm.stores {
			t.Fatalf("result divergence: walker ret=%d instrs=%d loads=%d stores=%d, vm ret=%d instrs=%d loads=%d stores=%d",
				walk.ret, walk.instrs, walk.loads, walk.stores,
				vm.ret, vm.instrs, vm.loads, vm.stores)
		}
	})
}
