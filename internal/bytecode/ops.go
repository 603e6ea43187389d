// Package bytecode compiles ir.Module into a flat, preallocated,
// fixed-width instruction stream for direct-dispatch execution. It plays
// the role a JIT's baseline tier plays in a managed runtime: the tree
// walker remains the semantic reference (interp.WithTreeWalk), while the
// compiled form removes per-node interface dispatch, environment-map
// lookups, and allocation from the hot path.
//
// The encoding follows the same index discipline as the internal/remote
// codec: instructions name variables, functions, and regions by their table
// index in the module (Var.ID, Func.ID, Region.ID), never by pointer, so a
// compiled Program is valid for any content-identical module instance and
// can be cached across jobs by module content-hash (see Cache).
//
// The compiler preserves the interpreter's observable semantics exactly:
// tracer event order, instruction counting (Instrs++ points are encoded as
// the FStep flag on the first instruction of each statement), yield points,
// and runtime-error panic messages are all bit-identical to the tree
// walker, which a registry-wide differential test enforces.
package bytecode

import "discopop/internal/ir"

// Opcode is one VM operation.
type Opcode uint8

// Baseline opcodes. Suffix conventions: G = global (operand is an absolute
// address), L = local (operand is a frame-slot index), I = indexed (an
// element index is popped from the value stack).
const (
	// OpInvalid marks the zero value so uninitialized instructions trap.
	OpInvalid Opcode = iota

	// OpPushC pushes the constant Val.
	OpPushC
	// OpLoadG/OpLoadL load a scalar: A = address/slot, B = var index,
	// C = static memory-operation ID.
	OpLoadG
	OpLoadL
	// OpLoadGI/OpLoadLI pop an element index, bounds-check it against the
	// array (B = var index), and load base+idx. A = base address/slot,
	// C = op ID.
	OpLoadGI
	OpLoadLI
	// OpStoreG/OpStoreL pop a value and store it. Operands as OpLoad*.
	OpStoreG
	OpStoreL
	// OpStoreGI/OpStoreLI pop an element index, then a value.
	OpStoreGI
	OpStoreLI
	// OpBin applies binary operator A to the top two stack values.
	OpBin
	// OpUn applies unary operator A to the top stack value.
	OpUn
	// OpAndSC/OpOrSC short-circuit: if the top value decides the result,
	// replace it with the result and jump to A (past the right operand and
	// its OpNorm); otherwise pop it and fall through.
	OpAndSC
	OpOrSC
	// OpNorm normalizes the top value to 0/1 (the != 0 of the walker's
	// logical operators).
	OpNorm
	// OpRand pushes the next deterministic pseudo-random value.
	OpRand
	// OpRefG/OpRefL push a by-reference argument base address (A =
	// address/slot) as a float64-encoded word. No event is emitted.
	OpRefG
	OpRefL
	// OpRefGI/OpRefLI pop an offset, bounds-check it (0..Elems inclusive,
	// B = var index), and push base+offset.
	OpRefGI
	OpRefLI
	// OpCall calls function A (arguments on the value stack, one word per
	// parameter) and pushes the result. OpCallVoid drops the result and
	// yields (statement-position call).
	OpCall
	OpCallVoid
	// OpRet returns from the current function; A = 1 if a return value is
	// on the stack. Unwinds the control stack (region exits, lock
	// releases) before returning.
	OpRet
	// OpJmp jumps to A.
	OpJmp
	// OpBr pops the branch condition, yields, enters region A, and jumps
	// to B when the condition is false.
	OpBr
	// OpExitBr exits the innermost branch region.
	OpExitBr
	// OpForEnter enters loop region A and resolves the induction variable
	// address: D = 0 local (B = slot), 1 global (B = address), 2 unbound
	// (B = var index, C = func index; panics after the region entry, like
	// the walker's addrOf).
	OpForEnter
	// OpForInit pops the init value and stores it to the induction
	// variable (A = var index, B = region index), then pushes the loop
	// frame.
	OpForInit
	// OpLoopHead marks one iteration: LoopIter event for the innermost
	// loop.
	OpLoopHead
	// OpForTest pops the To value, loads the induction variable (A = var
	// index, B = region index), and exits to C when the loop is done;
	// otherwise checks the iteration cap and the instruction budget, then
	// yields.
	OpForTest
	// OpForInc pops the step, performs the header's increment load+store
	// (A = var index, B = region index), bumps the iteration counter, and
	// jumps to the loop head C.
	OpForInc
	// OpLoopExit pops the loop frame and exits the loop region.
	OpLoopExit
	// OpWhileEnter enters loop region A and pushes the loop frame.
	OpWhileEnter
	// OpWhileTest pops the condition (B = region index) and exits to C
	// when false; otherwise checks the iteration cap and budget, then
	// yields.
	OpWhileTest
	// OpWhileNext bumps the iteration counter and jumps to the head C.
	OpWhileNext
	// OpLock acquires simulated mutex A (blocking); OpUnlock releases it.
	OpLock
	OpUnlock
	// OpSpawn starts a simulated thread running function A; the evaluated
	// arguments (one word per parameter) are popped from the value stack.
	OpSpawn
	// OpSyncT joins every live child of the current thread.
	OpSyncT
	// OpFreeH frees heap variable B bound at slot A.
	OpFreeH
	// OpPanic aborts with the walker's runtime-error message for a
	// statically detectable fault; B selects the message (see PanicKind).
	OpPanic
	// OpEnd terminates a function body that falls off the end (implicit
	// return 0).
	OpEnd

	// Superinstructions — fused forms of the dominant opcode pairs and
	// triples measured across the workload registry (see fuse.go). Each is
	// semantically the exact concatenation of its members.

	// OpForHeadC fuses OpLoopHead + OpPushC + OpForTest for the dominant
	// constant-bound counted loop: A/B/C as OpForTest, Val = To.
	OpForHeadC
	// OpForHeadL/OpForHeadG fuse OpLoopHead + OpLoadL/G + OpForTest for
	// variable loop bounds: D = slot/address, E = var index, F = op ID of
	// the bound load.
	OpForHeadL
	OpForHeadG
	// OpForIncC fuses OpPushC + OpForInc (constant step): Val = step.
	OpForIncC
	// OpBinC fuses OpPushC + OpBin (constant right operand): A = operator,
	// Val = constant.
	OpBinC
	// OpBinStoreL/G fuse OpBin + OpStoreL/G: A/B/C as the store, D = the
	// binary operator.
	OpBinStoreL
	OpBinStoreG
	// OpStoreCL/G fuse OpPushC + OpStoreL/G: Val = the stored constant.
	OpStoreCL
	OpStoreCG
	// OpLoadLL fuses two scalar local loads: A/B/C and D/E/F.
	OpLoadLL
	// OpIdxLoadL/G fuse the scalar local load of an index variable with
	// the indexed array load it feeds: index A/B/C (slot/var/op), array
	// D/E/F (slot-or-address/var/op).
	OpIdxLoadL
	OpIdxLoadG
	// OpIdxStoreL/G fuse the scalar local load of an index variable with
	// the indexed array store it addresses: operands as OpIdxLoad*; the
	// stored value is popped after the index load, like the walker's
	// Assign (Src first, then Dst.Index, then Store).
	OpIdxStoreL
	OpIdxStoreG
)

// FStep marks an instruction that begins a leaf statement: the dispatch
// loop increments Interp.Instrs before executing it, reproducing the tree
// walker's counting points exactly.
const FStep uint8 = 1

// PanicKind selects an OpPanic message (operand B).
type PanicKind int32

// OpPanic kinds. Operand use per kind is documented on the constant.
const (
	// PanicUnbound: "unbound variable %s in %s" (A = var index, C = func
	// index).
	PanicUnbound PanicKind = iota
	// PanicArity: "call to %s with %d args, want %d" (A = func index,
	// C = given count).
	PanicArity
	// PanicRefArg: "by-reference parameter %s of %s needs a variable
	// argument" (A = func index, C = parameter index).
	PanicRefArg
	// PanicFreeUnbound: "free of unbound variable %s" (A = var index).
	PanicFreeUnbound
	// PanicFreeNonHeap: "free of non-heap variable %s" (A = var index).
	PanicFreeNonHeap
)

// Instr is one fixed-width VM instruction. Operands are table indices,
// frame slots, absolute global addresses, or jump targets depending on the
// opcode; Val carries immediate constants; Loc is the source location of
// the enclosing statement, inherited by every access event the instruction
// emits (the paper's line-level dependence attribution).
type Instr struct {
	Op  Opcode
	Fl  uint8
	A   int32
	B   int32
	C   int32
	D   int32
	E   int32
	F   int32
	Val float64
	Loc ir.Loc
}

var opNames = [...]string{
	OpInvalid: "invalid", OpPushC: "pushc",
	OpLoadG: "loadg", OpLoadL: "loadl", OpLoadGI: "loadgi", OpLoadLI: "loadli",
	OpStoreG: "storeg", OpStoreL: "storel", OpStoreGI: "storegi", OpStoreLI: "storeli",
	OpBin: "bin", OpUn: "un", OpAndSC: "andsc", OpOrSC: "orsc", OpNorm: "norm",
	OpRand: "rand", OpRefG: "refg", OpRefL: "refl", OpRefGI: "refgi", OpRefLI: "refli",
	OpCall: "call", OpCallVoid: "callv", OpRet: "ret", OpJmp: "jmp",
	OpBr: "br", OpExitBr: "exitbr",
	OpForEnter: "forenter", OpForInit: "forinit", OpLoopHead: "loophead",
	OpForTest: "fortest", OpForInc: "forinc", OpLoopExit: "loopexit",
	OpWhileEnter: "whileenter", OpWhileTest: "whiletest", OpWhileNext: "whilenext",
	OpLock: "lock", OpUnlock: "unlock", OpSpawn: "spawn", OpSyncT: "sync",
	OpFreeH: "free", OpPanic: "panic", OpEnd: "end",
	OpForHeadC: "forhead.c", OpForHeadL: "forhead.l", OpForHeadG: "forhead.g",
	OpForIncC: "forinc.c", OpBinC: "bin.c",
	OpBinStoreL: "binstore.l", OpBinStoreG: "binstore.g",
	OpStoreCL: "storec.l", OpStoreCG: "storec.g", OpLoadLL: "load.ll",
	OpIdxLoadL: "idxload.l", OpIdxLoadG: "idxload.g",
	OpIdxStoreL: "idxstore.l", OpIdxStoreG: "idxstore.g",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}
