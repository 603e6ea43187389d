package bytecode

// Superinstruction fusion: a peephole pass over one function's freshly
// compiled code that replaces the dominant opcode sequences with single
// fused instructions. The candidate set was chosen by measuring dynamic
// opcode-pair frequencies across the workload registry (see the "Bytecode
// VM" section of DESIGN.md): the loop-header triple (LoopHead · bound-eval ·
// ForTest), constant-operand arithmetic, arithmetic feeding a scalar store,
// and index-variable loads feeding indexed array accesses together cover the
// large majority of all dynamically executed instruction boundaries.
//
// Fusion is only legal when it cannot be observed:
//
//   - no later member of a fused group may be a jump target (the group
//     executes atomically, so jumping into its middle would be lost);
//   - no later member may carry FStep (the Instrs++ would move across an
//     event boundary) — except the loop-header triple, whose handler
//     reproduces the walker's LoopIter → Instrs++ → bound-eval order
//     internally;
//   - every member shares one source location (always true within a
//     statement, which is the only place patterns occur).
//
// After rewriting, every surviving jump operand is remapped through the
// old-index → new-index table; a jump into a fused interior is impossible
// by construction and asserted.

// jumpPtr returns a pointer to in's jump-target operand, or nil if the
// opcode does not branch.
func jumpPtr(in *Instr) *int32 {
	switch in.Op {
	case OpJmp, OpAndSC, OpOrSC:
		return &in.A
	case OpBr:
		return &in.B
	case OpForTest, OpForInc, OpWhileTest, OpWhileNext,
		OpForHeadC, OpForHeadL, OpForHeadG, OpForIncC:
		return &in.C
	}
	return nil
}

// fuseFunc fuses the function code starting at entry (running to the
// current end of c.code) in place.
func (c *compiler) fuseFunc(entry int) {
	old := c.code[entry:]
	if len(old) < 2 {
		return
	}
	labels := make(map[int32]bool)
	for i := range old {
		if p := jumpPtr(&old[i]); p != nil {
			labels[*p] = true
		}
	}
	// free reports whether old[k] may be a non-leading member of a group.
	free := func(k int, allowStep bool) bool {
		if labels[int32(entry+k)] {
			return false
		}
		return allowStep || old[k].Fl&FStep == 0
	}
	newCode := make([]Instr, 0, len(old))
	oldToNew := make([]int32, len(old)+1)
	i := 0
	for i < len(old) {
		ni := int32(entry + len(newCode))
		oldToNew[i] = ni
		fused, n := c.tryFuse(old, i, free)
		if n > 1 {
			for k := 1; k < n; k++ {
				oldToNew[i+k] = -1
			}
			newCode = append(newCode, fused)
			c.fused += n - 1
			i += n
			continue
		}
		newCode = append(newCode, old[i])
		i++
	}
	oldToNew[len(old)] = int32(entry + len(newCode))
	for j := range newCode {
		if p := jumpPtr(&newCode[j]); p != nil {
			nt := oldToNew[*p-int32(entry)]
			if nt < 0 {
				panic("bytecode: jump into fused superinstruction interior")
			}
			*p = nt
		}
	}
	c.code = append(c.code[:entry], newCode...)
}

// tryFuse matches the superinstruction patterns at old[i], returning the
// fused instruction and the number of members consumed (0 if no match).
// Triples are tried before pairs. The fused instruction inherits the first
// member's flags and location.
func (c *compiler) tryFuse(old []Instr, i int, free func(int, bool) bool) (Instr, int) {
	a := &old[i]
	// Loop-header triple: LoopHead · single-op bound · ForTest. The bound
	// op always carries FStep (it begins the header's test statement);
	// the fused handler performs the Instrs++ between the LoopIter event
	// and the bound evaluation, so the step flag is allowed here and the
	// fused instruction carries none.
	if a.Op == OpLoopHead && i+2 < len(old) && old[i+2].Op == OpForTest &&
		free(i+1, true) && free(i+2, false) {
		b, t := &old[i+1], &old[i+2]
		out := Instr{A: t.A, B: t.B, C: t.C, Loc: a.Loc}
		switch b.Op {
		case OpPushC:
			out.Op, out.Val = OpForHeadC, b.Val
			return out, 3
		case OpLoadL:
			out.Op, out.D, out.E, out.F = OpForHeadL, b.A, b.B, b.C
			return out, 3
		case OpLoadG:
			out.Op, out.D, out.E, out.F = OpForHeadG, b.A, b.B, b.C
			return out, 3
		}
	}
	if i+1 >= len(old) || !free(i+1, false) {
		return Instr{}, 0
	}
	b := &old[i+1]
	out := Instr{Fl: a.Fl, Loc: a.Loc}
	switch a.Op {
	case OpPushC:
		switch b.Op {
		case OpBin:
			out.Op, out.A, out.Val = OpBinC, b.A, a.Val
			return out, 2
		case OpStoreL:
			out.Op, out.A, out.B, out.C, out.Val = OpStoreCL, b.A, b.B, b.C, a.Val
			return out, 2
		case OpStoreG:
			out.Op, out.A, out.B, out.C, out.Val = OpStoreCG, b.A, b.B, b.C, a.Val
			return out, 2
		case OpForInc:
			out.Op, out.A, out.B, out.C, out.Val = OpForIncC, b.A, b.B, b.C, a.Val
			return out, 2
		}
	case OpBin:
		switch b.Op {
		case OpStoreL:
			out.Op, out.A, out.B, out.C, out.D = OpBinStoreL, b.A, b.B, b.C, a.A
			return out, 2
		case OpStoreG:
			out.Op, out.A, out.B, out.C, out.D = OpBinStoreG, b.A, b.B, b.C, a.A
			return out, 2
		}
	case OpLoadL:
		out.A, out.B, out.C = a.A, a.B, a.C
		switch b.Op {
		case OpLoadL:
			out.Op, out.D, out.E, out.F = OpLoadLL, b.A, b.B, b.C
			return out, 2
		case OpLoadLI:
			out.Op, out.D, out.E, out.F = OpIdxLoadL, b.A, b.B, b.C
			return out, 2
		case OpLoadGI:
			out.Op, out.D, out.E, out.F = OpIdxLoadG, b.A, b.B, b.C
			return out, 2
		case OpStoreLI:
			out.Op, out.D, out.E, out.F = OpIdxStoreL, b.A, b.B, b.C
			return out, 2
		case OpStoreGI:
			out.Op, out.D, out.E, out.F = OpIdxStoreG, b.A, b.B, b.C
			return out, 2
		}
	}
	return Instr{}, 0
}
