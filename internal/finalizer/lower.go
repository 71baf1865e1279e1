package finalizer

import (
	"fmt"
	"math"
	"sort"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// Temporary-register pool geometry. Temps live only within one HSAIL
// instruction's lowered sequence, but the pool ROTATES between instructions
// the way a live-range allocator assigns fresh registers instead of reusing
// one hot set — which is what gives finalized code its longer register reuse
// distances (paper Figure 7) and spreads operand traffic across VRF banks
// (Figure 6). vTempPerInst bounds a single sequence's demand (the f64
// Newton-Raphson divide is the largest at 14 registers).
const (
	vTempWindow  = 40
	vTempPerInst = 16
	sTempWindow  = 16
	sTempPerInst = 8
)

// emitter accumulates the lowered instructions of one basic block and hands
// out temporary registers, whose high-water mark becomes part of the code
// object's register demand.
type emitter struct {
	f     *finalizer
	out   []gcn3.Inst
	vTemp int
	sTemp int
	err   error
}

func (e *emitter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// emit appends one instruction with waitcnt fields normalized.
func (e *emitter) emit(in gcn3.Inst) {
	if in.Op != gcn3.OpSWaitcnt {
		in.VMCnt, in.LGKMCnt = -1, -1
	}
	e.out = append(e.out, in)
}

// resetTemps starts a new HSAIL instruction: the temp cursors keep rotating
// through their windows, wrapping early enough that one sequence never
// overwrites its own temps.
func (e *emitter) resetTemps() {
	if e.vTemp > vTempWindow-vTempPerInst {
		e.vTemp = 0
	}
	if e.sTemp > sTempWindow-sTempPerInst {
		e.sTemp = 0
	}
}

// vtmp allocates n consecutive temporary VGPRs from the rotating pool.
func (e *emitter) vtmp(n int) int {
	if e.vTemp+n > vTempWindow {
		e.vTemp = 0
	}
	r := e.f.vTempBase + e.vTemp
	e.vTemp += n
	if e.vTemp > e.f.vTempMax {
		e.f.vTempMax = e.vTemp
	}
	return r
}

// stmp allocates n consecutive temporary SGPRs (64-bit aligned for n=2).
func (e *emitter) stmp(n int) int {
	if e.sTemp+n > sTempWindow {
		e.sTemp = 0
	}
	if n == 2 && (e.f.sTempBase+e.sTemp)%2 != 0 {
		e.sTemp++
	}
	r := e.f.sTempBase + e.sTemp
	e.sTemp += n
	if e.sTemp > e.f.sTempMax {
		e.f.sTempMax = e.sTemp
	}
	return r
}

// slotOperand returns the GCN3 register operand housing an HSAIL slot.
// Spilled slots resolve through the current instruction's staging overlay.
func (f *finalizer) slotOperand(slot int) gcn3.Operand {
	s := &f.slots[slot]
	switch s.home {
	case homeScalar:
		return gcn3.SReg(s.reg)
	case homeSpill:
		r, ok := f.spillOverlay[slot]
		if !ok {
			panic(fmt.Sprintf("finalizer: spilled slot %d accessed without staging", slot))
		}
		return gcn3.VReg(r)
	default:
		return gcn3.VReg(s.reg)
	}
}

// isScalarSlot reports whether the slot is scalar-homed.
func (f *finalizer) isScalarSlot(slot int) bool {
	return f.slots[slot].home == homeScalar
}

// constOperand builds the cheapest encoding of a 32-bit constant for an
// instruction of type t: inline when representable, literal otherwise.
func constOperand(t isa.DataType, bits uint32) gcn3.Operand {
	v := int32(bits)
	if v >= -16 && v <= 64 {
		return gcn3.Inline(bits)
	}
	if t.IsFloat() {
		f := math.Float32frombits(bits)
		switch f {
		case 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0:
			return gcn3.Inline(bits)
		}
	}
	return gcn3.Lit(bits)
}

// operand32 resolves an HSAIL source operand to a GCN3 operand addressing
// 32 bits at dword `part` of the value.
func (e *emitter) operand32(o hsail.Operand, t isa.DataType, part int) gcn3.Operand {
	switch o.Kind {
	case hsail.OperReg:
		return e.f.slotOperand(int(o.Reg) + part)
	case hsail.OperImm:
		bits := uint32(o.Imm >> uint(32*part))
		ct := t
		if part == 1 {
			ct = isa.TypeB32
		}
		return constOperand(ct, bits)
	}
	e.fail("finalizer: unexpected operand kind %d", o.Kind)
	return gcn3.Operand{}
}

// isVGPROperand reports whether the resolved operand is a VGPR.
func isVGPR(o gcn3.Operand) bool { return o.Kind == gcn3.OperVGPR }

// toVGPR materializes an operand into a temporary VGPR when it is not one.
func (e *emitter) toVGPR(o gcn3.Operand) gcn3.Operand {
	if isVGPR(o) {
		return o
	}
	t := e.vtmp(1)
	e.emit(gcn3.Inst{Op: gcn3.OpVMov, Type: isa.TypeB32, Dst: gcn3.VReg(t), Srcs: [3]gcn3.Operand{o}})
	return gcn3.VReg(t)
}

// toSGPR materializes a literal into a temporary SGPR (for VOP3 sources,
// which cannot encode literals).
func (e *emitter) toSGPR(o gcn3.Operand) gcn3.Operand {
	if o.Kind != gcn3.OperLit {
		return o
	}
	t := e.stmp(1)
	e.emit(gcn3.Inst{Op: gcn3.OpSMov, Type: isa.TypeB32, Dst: gcn3.SReg(t), Srcs: [3]gcn3.Operand{o}})
	return gcn3.SReg(t)
}

// vop3Srcs strips literals from VOP3 sources.
func (e *emitter) vop3Srcs(srcs ...gcn3.Operand) [3]gcn3.Operand {
	var out [3]gcn3.Operand
	for i, s := range srcs {
		out[i] = e.toSGPR(s)
	}
	return out
}

// commutable reports whether a VOP2 op allows swapping src0/src1.
func commutable(op gcn3.Op) bool {
	switch op {
	case gcn3.OpVAdd, gcn3.OpVAddc, gcn3.OpVMul, gcn3.OpVMin, gcn3.OpVMax,
		gcn3.OpVAnd, gcn3.OpVOr, gcn3.OpVXor:
		return true
	}
	return false
}

// vop2 emits a 2-source vector op honoring the VOP2 encoding rule that src1
// must be a VGPR, commuting or materializing as needed.
func (e *emitter) vop2(op gcn3.Op, t isa.DataType, dst gcn3.Operand, s0, s1 gcn3.Operand, sdst gcn3.Operand) {
	in := gcn3.Inst{Op: op, Type: t, Dst: dst, SDst: sdst}
	probe := gcn3.Inst{Op: op, Type: t}
	if probe.Format() == gcn3.FmtVOP3 {
		// 64-bit forms are VOP3: no VGPR restriction, no literals.
		s := e.vop3Srcs(s0, s1)
		in.Srcs = s
		e.emit(in)
		return
	}
	if !isVGPR(s1) {
		if commutable(op) && isVGPR(s0) {
			s0, s1 = s1, s0
		} else {
			s1 = e.toVGPR(s1)
		}
	}
	in.Srcs = [3]gcn3.Operand{s0, s1}
	e.emit(in)
}

// add64 emits dst = a + b for 64-bit vector values expressed as dword
// operand pairs, using the explicit add/addc chain GCN3 requires.
func (e *emitter) add64(dstLo, dstHi gcn3.Operand, aLo, aHi, bLo, bHi gcn3.Operand) {
	e.vop2(gcn3.OpVAdd, isa.TypeU32, dstLo, aLo, bLo, gcn3.VCC())
	e.vop2(gcn3.OpVAddc, isa.TypeU32, dstHi, aHi, bHi, gcn3.VCC())
}

// movToVGPRPair materializes a 64-bit value (dword operands lo/hi) into a
// temporary VGPR pair and returns the first register.
func (e *emitter) movToVGPRPair(lo, hi gcn3.Operand) int {
	t := e.vtmp(2)
	e.emit(gcn3.Inst{Op: gcn3.OpVMov, Type: isa.TypeB32, Dst: gcn3.VReg(t), Srcs: [3]gcn3.Operand{lo}})
	e.emit(gcn3.Inst{Op: gcn3.OpVMov, Type: isa.TypeB32, Dst: gcn3.VReg(t + 1), Srcs: [3]gcn3.Operand{hi}})
	return t
}

// lowerAll drives per-block lowering, including structured-control-flow
// prefixes (exec restores at joins) and suffixes (loop-entry exec saves).
func (f *finalizer) lowerAll() error {
	n := len(f.k.Blocks)
	f.out = make([][]gcn3.Inst, n)

	// Prefix instructions (exec restores, else flips) carry the branch
	// block that created them so that, when several constructs share a
	// join block, INNER restores (later branch blocks) run before OUTER
	// ones — the outermost mask must win.
	type prefixItem struct {
		branch int
		insts  []gcn3.Inst
	}
	prefixItems := make(map[int][]prefixItem)
	suffixes := make(map[int][]gcn3.Inst)
	f.dropBr = make(map[int]bool)
	for _, bi := range f.cfg.ShapeBlocks() {
		sh := f.cfg.Shapes[bi]
		term := lastInst(f.k.Blocks[bi])
		if f.cregs[term.Srcs[0].Reg].fused {
			continue // uniform branch: no exec manipulation
		}
		if sh.Kind == kernel.ShapeIfThenElse {
			// The else flip: then-lanes fall through into it; the
			// guard's bypass branch targets it directly.
			save := f.condSave[bi]
			prefixItems[sh.ElseStart] = append(prefixItems[sh.ElseStart], prefixItem{bi, []gcn3.Inst{
				{Op: gcn3.OpSAndN2, Type: isa.TypeB64, Dst: gcn3.EXEC(),
					Srcs: [3]gcn3.Operand{gcn3.SReg(save), gcn3.EXEC()}},
				{Op: gcn3.OpSCbranchExecZ, Target: blockTarget(sh.Join)},
			}})
			f.dropBr[sh.ThenEnd-1] = true
		}
		switch sh.Kind {
		case kernel.ShapeLoopLatch:
			save := f.loopSave[bi]
			suffixes[sh.Header-1] = append(suffixes[sh.Header-1], gcn3.Inst{
				Op: gcn3.OpSMov, Type: isa.TypeB64, Dst: gcn3.SReg(save),
				Srcs: [3]gcn3.Operand{gcn3.EXEC()},
			})
			prefixItems[sh.Join] = append(prefixItems[sh.Join], prefixItem{bi, []gcn3.Inst{{
				Op: gcn3.OpSMov, Type: isa.TypeB64, Dst: gcn3.EXEC(),
				Srcs: [3]gcn3.Operand{gcn3.SReg(save)},
			}}})
		default:
			save := f.condSave[bi]
			prefixItems[sh.Join] = append(prefixItems[sh.Join], prefixItem{bi, []gcn3.Inst{{
				Op: gcn3.OpSMov, Type: isa.TypeB64, Dst: gcn3.EXEC(),
				Srcs: [3]gcn3.Operand{gcn3.SReg(save)},
			}}})
		}
	}
	prefixes := make(map[int][]gcn3.Inst)
	for blk, items := range prefixItems {
		sort.Slice(items, func(i, j int) bool { return items[i].branch > items[j].branch })
		for _, it := range items {
			prefixes[blk] = append(prefixes[blk], it.insts...)
		}
	}

	for bi, b := range f.k.Blocks {
		e := &emitter{f: f}
		for _, p := range prefixes[bi] {
			e.emit(p)
		}
		if bi == 0 {
			f.prologue(e)
		}
		var pendingCmp *hsail.Inst
		for ii := range b.Insts {
			in := &b.Insts[ii]
			e.resetTemps()
			if in.Op == hsail.OpCmp && f.cregs[in.Dst.Reg].fused {
				pendingCmp = in
				continue
			}
			reads, writes := hsailRegRefs(in)
			f.prepareSpills(e, reads, writes)
			if err := f.lowerInst(e, in, bi, pendingCmp); err != nil {
				return err
			}
			f.flushSpills(e, writes)
			if e.err != nil {
				return e.err
			}
		}
		for _, s := range suffixes[bi] {
			e.emit(s)
		}
		f.out[bi] = e.out
	}
	return nil
}

// prologue emits the ABI-dependent kernel entry sequence: the Table 1
// absolute-work-item-ID computation and the per-lane scratch base address
// for kernels that touch private/spill memory.
func (f *finalizer) prologue(e *emitter) {
	if !f.useAbsID {
		return
	}
	st := e.stmp(1)
	// Table 1: read the dispatch packet's workgroup size, extract X,
	// multiply by the workgroup ID, add the lane's local ID (v0).
	e.emit(gcn3.Inst{Op: gcn3.OpSLoadDword, Dst: gcn3.SReg(st),
		Srcs: [3]gcn3.Operand{gcn3.SReg(gcn3.SGPRDispatchPtr)}, Offset: gcn3.PktWorkgroupSizeX})
	e.emit(gcn3.Inst{Op: gcn3.OpSBfe, Type: isa.TypeU32, Dst: gcn3.SReg(st),
		Srcs: [3]gcn3.Operand{gcn3.SReg(st), gcn3.Lit(0x100000)}})
	e.emit(gcn3.Inst{Op: gcn3.OpSMul, Type: isa.TypeS32, Dst: gcn3.SReg(st),
		Srcs: [3]gcn3.Operand{gcn3.SReg(st), gcn3.SReg(gcn3.SGPRWorkGroupIDX)}})
	e.vop2(gcn3.OpVAdd, isa.TypeU32, gcn3.VReg(f.vAbsID),
		gcn3.SReg(st), gcn3.VReg(gcn3.VGPRWorkItemID), gcn3.VCC())
	if !f.usePrivate {
		e.resetTemps()
		return
	}
	// Per-lane scratch base: s[0:1] + absID * stride(s2).
	vt := e.vtmp(1)
	e.emit(gcn3.Inst{Op: gcn3.OpVMulLo, Type: isa.TypeU32, Dst: gcn3.VReg(vt),
		Srcs: [3]gcn3.Operand{gcn3.VReg(f.vAbsID), gcn3.SReg(gcn3.SGPRPrivateStride)}})
	e.vop2(gcn3.OpVAdd, isa.TypeU32, gcn3.VReg(f.vPrivBase),
		gcn3.SReg(gcn3.SGPRPrivateBase), gcn3.VReg(vt), gcn3.VCC())
	e.emit(gcn3.Inst{Op: gcn3.OpVMov, Type: isa.TypeB32, Dst: gcn3.VReg(f.vPrivBase + 1),
		Srcs: [3]gcn3.Operand{gcn3.SReg(gcn3.SGPRPrivateBase + 1)}})
	e.vop2(gcn3.OpVAddc, isa.TypeU32, gcn3.VReg(f.vPrivBase+1),
		gcn3.Inline(0), gcn3.VReg(f.vPrivBase+1), gcn3.VCC())
	e.resetTemps()
}
