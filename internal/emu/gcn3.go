package emu

import (
	"fmt"

	"ilsim/internal/gcn3"
	"ilsim/internal/hsa"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// GCN3Engine executes finalized machine code: whole-wavefront vector
// instructions against the architected EXEC mask, scalar instructions on
// SGPR state, real ABI register initialization, scalar memory loads that
// read the actual dispatch packet, and waitcnt-based dependency semantics.
type GCN3Engine struct {
	Ctx *hsa.Context
	CO  *gcn3.CodeObject
	D   *hsa.Dispatch
	Col *Collector

	// Base is the code object's load address; instruction PCs are
	// Base-relative per Program.PCs.
	Base uint64

	prog *gcn3.Program
	// infos is the per-PC decode cache: scheduling metadata is static per
	// instruction, so Peek is a table lookup on the hot path.
	infos []InstInfo

	// vs0..vdst are vector's lane scratch buffers, hoisted to the engine
	// so the hot path does not zero 2KB of stack per instruction. Reuse is
	// safe because sources are filled for all lanes (readVecSrc) and dst
	// is both written and consumed under EXEC (perLane / writeVecDst), so
	// stale lanes are never observable. They also make Execute
	// non-reentrant; each compute unit executes on its own clone (Fork).
	vs0, vs1, vs2, vdst [isa.WavefrontSize]uint64
}

var _ Forker = (*GCN3Engine)(nil)

// NewGCN3Engine prepares a loaded code object for execution.
func NewGCN3Engine(ctx *hsa.Context, co *gcn3.CodeObject, d *hsa.Dispatch, base uint64, col *Collector) *GCN3Engine {
	if co.Program.PCs == nil || co.Program.ByPCStale() {
		co.Program.Layout()
	}
	e := &GCN3Engine{Ctx: ctx, CO: co, D: d, Col: col, Base: base, prog: co.Program}
	e.infos = make([]InstInfo, len(e.prog.Insts))
	for i := range e.infos {
		e.infos[i] = e.decodeInfo(i)
	}
	return e
}

// Fork returns an execution clone for one compute unit: shared decode
// state, private lane scratch (the struct copy), a private collector
// targeting run. mv is ignored.
func (e *GCN3Engine) Fork(run *stats.Run, mv *mem.Memory) Engine {
	f := *e
	f.Col = e.Col.Fork(run)
	return &f
}

// Abstraction identifies the engine.
func (e *GCN3Engine) Abstraction() string { return "GCN3" }

// CodeBytes returns the true encoded instruction footprint.
func (e *GCN3Engine) CodeBytes() uint64 { return uint64(e.prog.Size) }

// LDSBytes returns the workgroup LDS demand.
func (e *GCN3Engine) LDSBytes() int { return e.CO.GroupSize }

// RegDemand returns (VGPRs, SGPRs) per wavefront.
func (e *GCN3Engine) RegDemand() (int, int) { return e.CO.NumVGPRs, e.CO.NumSGPRs }

func (e *GCN3Engine) idxOf(pc uint64) (int, error) {
	idx := e.prog.IndexAt(pc - e.Base)
	if idx < 0 {
		return 0, fmt.Errorf("emu: bad GCN3 PC %#x", pc)
	}
	return idx, nil
}

// InstString disassembles the instruction at pc.
func (e *GCN3Engine) InstString(pc uint64) string {
	idx, err := e.idxOf(pc)
	if err != nil {
		return err.Error()
	}
	return e.prog.Insts[idx].String()
}

// NewWave initializes wavefront state per the GCN3 ABI: the command
// processor has placed the dispatch-packet address, kernarg base, scratch
// base/stride and workgroup IDs in SGPRs and each lane's flat work-item ID
// in v0 (paper §III.A.1).
func (e *GCN3Engine) NewWave(wg *WGState, waveID int) *Wave {
	first := waveID * isa.WavefrontSize
	lanes := wg.Info.Size - first
	if lanes > isa.WavefrontSize {
		lanes = isa.WavefrontSize
	}
	nv := e.CO.NumVGPRs
	if nv < 1 {
		nv = 1
	}
	w := &Wave{
		WG: wg, WaveID: waveID, FirstWI: first, NumLanes: lanes,
		PC:   e.Base,
		Exec: isa.FullMask(lanes),
		VGPR: make([][isa.WavefrontSize]uint32, nv),
	}
	d := wg.Dispatch
	w.SGPR[gcn3.SGPRPrivateBase] = uint32(d.PrivateBase)
	w.SGPR[gcn3.SGPRPrivateBase+1] = uint32(d.PrivateBase >> 32)
	w.SGPR[gcn3.SGPRPrivateStride] = d.PrivateStride
	w.SGPR[gcn3.SGPRDispatchPtr] = uint32(d.PacketAddr)
	w.SGPR[gcn3.SGPRDispatchPtr+1] = uint32(d.PacketAddr >> 32)
	w.SGPR[gcn3.SGPRKernargPtr] = uint32(d.Packet.KernargAddress)
	w.SGPR[gcn3.SGPRKernargPtr+1] = uint32(d.Packet.KernargAddress >> 32)
	w.SGPR[gcn3.SGPRWorkGroupIDX] = wg.Info.ID[0]
	w.SGPR[gcn3.SGPRWorkGroupIDY] = wg.Info.ID[1]
	w.SGPR[gcn3.SGPRWorkGroupIDZ] = wg.Info.ID[2]
	dims := e.CO.WorkItemIDDims
	if dims < 1 {
		dims = 1
	}
	for lane := 0; lane < lanes; lane++ {
		lid := d.LocalID(first + lane)
		w.VGPR[gcn3.VGPRWorkItemID][lane] = lid[0]
		if dims >= 2 {
			w.VGPR[gcn3.VGPRWorkItemIDY][lane] = lid[1]
		}
		if dims >= 3 {
			w.VGPR[gcn3.VGPRWorkItemIDZ][lane] = lid[2]
		}
	}
	if e.Col != nil && e.Col.TrackReuse {
		w.Reuse = stats.NewReuseTracker(nv)
	}
	return w
}

// Peek returns the decode-cache entry for the instruction at w.PC.
func (e *GCN3Engine) Peek(w *Wave) (*InstInfo, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return nil, err
	}
	return &e.infos[idx], nil
}

// decodeInfo builds the scheduling metadata of instruction idx.
func (e *GCN3Engine) decodeInfo(idx int) InstInfo {
	in := &e.prog.Insts[idx]
	info := InstInfo{
		PC:        e.Base + e.prog.PCs[idx],
		SizeBytes: in.SizeBytes(),
		Category:  in.Category(),
		WaitVM:    -1,
		WaitLGKM:  -1,
	}
	addOper := func(o gcn3.Operand, width int, write bool) {
		switch o.Kind {
		case gcn3.OperVGPR:
			if write {
				info.VRFWrites.Add(int(o.Index), width)
			} else {
				info.VRFReads.Add(int(o.Index), width)
			}
		case gcn3.OperSGPR:
			if write {
				info.SRFWrites.Add(int(o.Index), width)
			} else {
				info.SRFReads.Add(int(o.Index), width)
			}
		}
	}
	for i := 0; i < in.Op.NSrc(); i++ {
		addOper(in.Srcs[i], in.SrcRegs(i), false)
	}
	addOper(in.Dst, in.DstRegs(), true)
	addOper(in.SDst, 2, true)

	switch {
	case in.Op == gcn3.OpSWaitcnt:
		info.LatClass = LatNop
		info.WaitVM, info.WaitLGKM = in.VMCnt, in.LGKMCnt
	case in.Op == gcn3.OpSBarrier:
		info.LatClass = LatNop
		info.IsBarrier = true
	case in.Op == gcn3.OpSEndpgm:
		info.LatClass = LatNop
		info.IsEndPgm = true
	case in.Op == gcn3.OpSNop:
		info.LatClass = LatNop
	case in.Op.IsBranch():
		info.LatClass = LatBranch
		info.IsBranch = true
	case in.Op.Category() == isa.CatSALU:
		info.LatClass = LatScalar
	case in.Op.Category() == isa.CatSMem:
		info.LatClass = LatMem
		info.IsLGKM = true
	case in.Op.Category() == isa.CatLDS:
		info.LatClass = LatLDS
		info.IsLGKM = true
	case in.Op.Category() == isa.CatVMem:
		info.LatClass = LatMem
		info.IsVMem = true
	case in.Op == gcn3.OpVRcp || in.Op == gcn3.OpVSqrt || in.Op == gcn3.OpVRsq ||
		in.Op == gcn3.OpVDivScale || in.Op == gcn3.OpVDivFmas || in.Op == gcn3.OpVDivFixup:
		info.LatClass = LatTrans
	default:
		if in.Type.Regs() == 2 {
			info.LatClass = LatALU64
		} else {
			info.LatClass = LatALU
		}
	}
	return info
}

// readScalar reads a scalar operand of the given register width.
func (e *GCN3Engine) readScalar(w *Wave, o gcn3.Operand, width int) uint64 {
	switch o.Kind {
	case gcn3.OperSGPR:
		v := uint64(w.SGPR[o.Index])
		if width == 2 {
			v |= uint64(w.SGPR[o.Index+1]) << 32
		}
		return v
	case gcn3.OperVCC:
		return w.VCC
	case gcn3.OperEXEC:
		return uint64(w.Exec)
	case gcn3.OperSCC:
		if w.SCC {
			return 1
		}
		return 0
	case gcn3.OperInline, gcn3.OperLit:
		return uint64(o.Val)
	}
	return 0
}

// writeScalar writes a scalar destination of the given register width.
func (e *GCN3Engine) writeScalar(w *Wave, o gcn3.Operand, width int, v uint64) {
	switch o.Kind {
	case gcn3.OperSGPR:
		w.SGPR[o.Index] = uint32(v)
		if width == 2 {
			w.SGPR[o.Index+1] = uint32(v >> 32)
		}
	case gcn3.OperVCC:
		w.VCC = v
	case gcn3.OperEXEC:
		w.Exec = isa.ExecMask(v)
	}
}

// expandConst widens a 32-bit constant for a 64-bit operation. Float
// constants expand f32→f64 (the GCN3 literal rule); integers zero-extend.
func expandConst(t isa.DataType, v uint32) uint64 {
	if t == isa.TypeF64 {
		return fromF64(float64(f32(uint64(v))))
	}
	if t.IsSigned() {
		return uint64(int64(int32(v)))
	}
	return uint64(v)
}

// readVecSrc gathers a vector-instruction source: per-lane for VGPRs,
// broadcast for scalars and constants.
func (e *GCN3Engine) readVecSrc(w *Wave, o gcn3.Operand, width int, t isa.DataType, vals *[isa.WavefrontSize]uint64) {
	switch o.Kind {
	case gcn3.OperVGPR:
		lo := &w.VGPR[o.Index]
		e.Col.OnVRFValue(false, lo, w.Exec)
		e.Col.OnVRFSlot(w, int(o.Index))
		if width == 2 {
			hi := &w.VGPR[o.Index+1]
			e.Col.OnVRFValue(false, hi, w.Exec)
			e.Col.OnVRFSlot(w, int(o.Index)+1)
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane]) | uint64(hi[lane])<<32
			}
		} else {
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane])
			}
		}
	case gcn3.OperInline, gcn3.OperLit:
		v := uint64(o.Val)
		if width == 2 {
			v = expandConst(t, o.Val)
		}
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = v
		}
	default:
		v := e.readScalar(w, o, width)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = v
		}
	}
}

// writeVecDst stores per-lane results into a VGPR destination under EXEC.
func (e *GCN3Engine) writeVecDst(w *Wave, o gcn3.Operand, width int, vals *[isa.WavefrontSize]uint64) {
	if o.Kind != gcn3.OperVGPR {
		return
	}
	lo := &w.VGPR[o.Index]
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if w.Exec.Bit(lane) {
			lo[lane] = uint32(vals[lane])
		}
	}
	e.Col.OnVRFValue(true, lo, w.Exec)
	e.Col.OnVRFSlot(w, int(o.Index))
	if width == 2 {
		hi := &w.VGPR[o.Index+1]
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				hi[lane] = uint32(vals[lane] >> 32)
			}
		}
		e.Col.OnVRFValue(true, hi, w.Exec)
		e.Col.OnVRFSlot(w, int(o.Index)+1)
	}
}

// gcn3UnKind and gcn3BinKind map vector ALU opcodes to evaluator kinds
// (hoisted to package scope so execution does not rebuild them per
// instruction).
var gcn3UnKind = map[gcn3.Op]unOpKind{
	gcn3.OpVRcp: unRcp, gcn3.OpVSqrt: unSqrt, gcn3.OpVRsq: unRsqrt,
}

var gcn3BinKind = map[gcn3.Op]binOpKind{
	gcn3.OpVAdd: binAdd, gcn3.OpVSub: binSub, gcn3.OpVMul: binMul,
	gcn3.OpVMulLo: binMul, gcn3.OpVMulHi: binMulHi,
	gcn3.OpVMin: binMin, gcn3.OpVMax: binMax, gcn3.OpVAnd: binAnd,
	gcn3.OpVOr: binOr, gcn3.OpVXor: binXor,
}

// Execute commits the instruction at w.PC.
func (e *GCN3Engine) Execute(w *Wave) (ExecResult, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return ExecResult{}, err
	}
	in := &e.prog.Insts[idx]
	info := &e.infos[idx]
	res := ExecResult{ActiveLanes: w.Exec.PopCount()}
	e.Col.TickReuse(w)
	seqPC := w.PC + uint64(info.SizeBytes)
	nextPC := seqPC

	switch in.Op {
	// ---- Scalar ALU ----
	case gcn3.OpSMov:
		wd := in.Type.Regs()
		e.writeScalar(w, in.Dst, wd, e.readScalar(w, in.Srcs[0], wd))
	case gcn3.OpSNot:
		wd := in.Type.Regs()
		v := ^e.readScalar(w, in.Srcs[0], wd)
		if wd == 1 {
			v = uint64(uint32(v))
		}
		e.writeScalar(w, in.Dst, wd, v)
		w.SCC = v != 0
	case gcn3.OpSAndSaveexec, gcn3.OpSOrSaveexec:
		old := uint64(w.Exec)
		src := e.readScalar(w, in.Srcs[0], 2)
		e.writeScalar(w, in.Dst, 2, old)
		if in.Op == gcn3.OpSAndSaveexec {
			w.Exec = isa.ExecMask(old & src)
		} else {
			w.Exec = isa.ExecMask(old | src)
		}
		w.SCC = w.Exec != 0
	case gcn3.OpSAdd, gcn3.OpSSub, gcn3.OpSMul, gcn3.OpSLshl, gcn3.OpSLshr,
		gcn3.OpSAshr, gcn3.OpSAnd, gcn3.OpSOr, gcn3.OpSXor, gcn3.OpSAndN2:
		wd := in.Type.Regs()
		if wd == 0 {
			wd = 1
		}
		a := e.readScalar(w, in.Srcs[0], wd)
		b := e.readScalar(w, in.Srcs[1], wd)
		var v uint64
		switch in.Op {
		case gcn3.OpSAdd:
			v = binOp(binAdd, in.Type, a, b)
			w.SCC = uint64(uint32(a))+uint64(uint32(b)) > 0xFFFFFFFF
		case gcn3.OpSSub:
			v = binOp(binSub, in.Type, a, b)
			w.SCC = uint32(b) > uint32(a)
		case gcn3.OpSMul:
			v = binOp(binMul, in.Type, a, b)
		case gcn3.OpSLshl:
			v = binOp(binShl, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSLshr:
			v = binOp(binShr, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSAshr:
			v = binOp(binShr, isa.TypeS32, a, b)
			w.SCC = v != 0
		case gcn3.OpSAnd:
			v = binOp(binAnd, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSOr:
			v = binOp(binOr, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSXor:
			v = binOp(binXor, in.Type, a, b)
			w.SCC = v != 0
		case gcn3.OpSAndN2:
			v = a &^ b
			w.SCC = v != 0
		}
		e.writeScalar(w, in.Dst, wd, v)
	case gcn3.OpSAddc:
		a := e.readScalar(w, in.Srcs[0], 1)
		b := e.readScalar(w, in.Srcs[1], 1)
		cin := uint64(0)
		if w.SCC {
			cin = 1
		}
		sum := uint64(uint32(a)) + uint64(uint32(b)) + cin
		e.writeScalar(w, in.Dst, 1, uint64(uint32(sum)))
		w.SCC = sum > 0xFFFFFFFF
	case gcn3.OpSBfe:
		a := e.readScalar(w, in.Srcs[0], 1)
		spec := e.readScalar(w, in.Srcs[1], 1)
		off := spec & 0x1F
		width := spec >> 16 & 0x7F
		v := uint64(0)
		if width > 0 {
			v = a >> off & (1<<width - 1)
		}
		e.writeScalar(w, in.Dst, 1, v)
		w.SCC = v != 0
	case gcn3.OpSCmp:
		a := e.readScalar(w, in.Srcs[0], 1)
		b := e.readScalar(w, in.Srcs[1], 1)
		w.SCC = compare(in.Cmp, in.Type, a, b)

	// ---- Scalar program control ----
	case gcn3.OpSEndpgm:
		w.Done = true
		res.IsEndPgm = true
		e.Col.OnCommit(info.Category, res.ActiveLanes)
		return res, nil
	case gcn3.OpSBarrier:
		res.IsBarrier = true
	case gcn3.OpSNop, gcn3.OpSWaitcnt:
		// Timing-only effects.
	case gcn3.OpSBranch, gcn3.OpSCbranchSCC0, gcn3.OpSCbranchSCC1,
		gcn3.OpSCbranchVCCZ, gcn3.OpSCbranchVCCNZ,
		gcn3.OpSCbranchExecZ, gcn3.OpSCbranchExecNZ:
		taken := false
		switch in.Op {
		case gcn3.OpSBranch:
			taken = true
		case gcn3.OpSCbranchSCC0:
			taken = !w.SCC
		case gcn3.OpSCbranchSCC1:
			taken = w.SCC
		case gcn3.OpSCbranchVCCZ:
			taken = w.VCC == 0
		case gcn3.OpSCbranchVCCNZ:
			taken = w.VCC != 0
		case gcn3.OpSCbranchExecZ:
			taken = w.Exec == 0
		case gcn3.OpSCbranchExecNZ:
			taken = w.Exec != 0
		}
		if taken {
			nextPC = e.Base + e.prog.PCs[in.Target]
			res.Redirected = nextPC != seqPC
		}

	// ---- Scalar memory ----
	case gcn3.OpSLoadDword, gcn3.OpSLoadDwordx2, gcn3.OpSLoadDwordx4:
		base := e.readScalar(w, in.Srcs[0], 2)
		addr := base + uint64(in.Offset)
		n := in.DstRegs()
		for i := 0; i < n; i++ {
			w.SGPR[int(in.Dst.Index)+i] = e.Ctx.Mem.ReadU32(addr + uint64(4*i))
		}
		res.MemKind = MemScalar
		first := addr &^ (mem.LineSize - 1)
		last := (addr + uint64(4*n) - 1) &^ (mem.LineSize - 1)
		w.linesBuf = w.linesBuf[:0]
		for l := first; l <= last; l += mem.LineSize {
			w.linesBuf = append(w.linesBuf, l)
		}
		res.Lines = w.linesBuf

	// ---- Vector ALU ----
	default:
		if err := e.vector(w, in, &res); err != nil {
			return res, err
		}
	}

	w.PC = nextPC
	e.Col.OnCommit(info.Category, res.ActiveLanes)
	return res, nil
}

// vector executes VALU, FLAT and DS operations.
func (e *GCN3Engine) vector(w *Wave, in *gcn3.Inst, res *ExecResult) error {
	s0, s1, s2, dst := &e.vs0, &e.vs1, &e.vs2, &e.vdst
	t := in.Type
	read := func(i int, buf *[isa.WavefrontSize]uint64) {
		st := t
		if in.Op == gcn3.OpVCvt {
			st = in.SrcType
		}
		e.readVecSrc(w, in.Srcs[i], in.SrcRegs(i), st, buf)
	}
	perLane := func(f func(lane int)) {
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				f(lane)
			}
		}
	}

	switch in.Op {
	case gcn3.OpVMov:
		read(0, s0)
		perLane(func(l int) { dst[l] = s0[l] })
		e.writeVecDst(w, in.Dst, in.DstRegs(), dst)
	case gcn3.OpVNot:
		read(0, s0)
		perLane(func(l int) { dst[l] = uint64(^uint32(s0[l])) })
		e.writeVecDst(w, in.Dst, 1, dst)
	case gcn3.OpVCvt:
		read(0, s0)
		perLane(func(l int) { dst[l] = convert(in.Type, in.SrcType, s0[l]) })
		e.writeVecDst(w, in.Dst, in.Type.Regs(), dst)
	case gcn3.OpVRcp, gcn3.OpVSqrt, gcn3.OpVRsq:
		read(0, s0)
		kind := gcn3UnKind[in.Op]
		perLane(func(l int) { dst[l] = unOp(kind, t, s0[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVAdd, gcn3.OpVSub, gcn3.OpVMul, gcn3.OpVMulLo, gcn3.OpVMulHi,
		gcn3.OpVMin, gcn3.OpVMax, gcn3.OpVAnd, gcn3.OpVOr, gcn3.OpVXor:
		read(0, s0)
		read(1, s1)
		kind := gcn3BinKind[in.Op]
		bt := t
		if in.Op == gcn3.OpVMulLo || in.Op == gcn3.OpVMulHi {
			bt = isa.TypeU32
		}
		var carry uint64
		perLane(func(l int) {
			dst[l] = binOp(kind, bt, s0[l], s1[l])
			if in.Op == gcn3.OpVAdd && t == isa.TypeU32 {
				if s0[l]+s1[l] > 0xFFFFFFFF {
					carry |= 1 << uint(l)
				}
			}
			if in.Op == gcn3.OpVSub && t == isa.TypeU32 {
				if uint32(s1[l]) > uint32(s0[l]) {
					carry |= 1 << uint(l)
				}
			}
		})
		e.writeVecDst(w, in.Dst, bt.Regs(), dst)
		if in.SDst.Kind == gcn3.OperVCC {
			w.VCC = carry
		} else if in.SDst.Kind == gcn3.OperSGPR {
			e.writeScalar(w, in.SDst, 2, carry)
		}
	case gcn3.OpVAddc:
		read(0, s0)
		read(1, s1)
		oldVCC := w.VCC
		var carry uint64
		perLane(func(l int) {
			cin := oldVCC >> uint(l) & 1
			sum := uint64(uint32(s0[l])) + uint64(uint32(s1[l])) + cin
			dst[l] = uint64(uint32(sum))
			if sum > 0xFFFFFFFF {
				carry |= 1 << uint(l)
			}
		})
		e.writeVecDst(w, in.Dst, 1, dst)
		w.VCC = carry
	case gcn3.OpVLshl, gcn3.OpVLshr, gcn3.OpVAshr:
		// rev operand order: src0 is the shift amount.
		read(0, s0)
		read(1, s1)
		kind := binShl
		bt := t
		switch in.Op {
		case gcn3.OpVLshr:
			kind = binShr
		case gcn3.OpVAshr:
			kind = binShr
			bt = isa.TypeS32
		}
		perLane(func(l int) { dst[l] = binOp(kind, bt, s1[l], s0[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVMad, gcn3.OpVFma:
		read(0, s0)
		read(1, s1)
		read(2, s2)
		perLane(func(l int) { dst[l] = fma(t, s0[l], s1[l], s2[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVCmp:
		read(0, s0)
		read(1, s1)
		var m uint64
		perLane(func(l int) {
			if compare(in.Cmp, t, s0[l], s1[l]) {
				m |= 1 << uint(l)
			}
		})
		if in.Dst.Kind == gcn3.OperSGPR {
			e.writeScalar(w, in.Dst, 2, m)
		} else {
			w.VCC = m
		}
	case gcn3.OpVCndmask:
		read(0, s0)
		read(1, s1)
		sel := e.readScalar(w, in.Srcs[2], 2)
		perLane(func(l int) {
			if sel>>uint(l)&1 != 0 {
				dst[l] = s1[l]
			} else {
				dst[l] = s0[l]
			}
		})
		e.writeVecDst(w, in.Dst, 1, dst)
	case gcn3.OpVDivScale:
		// Simplified semantics: pass the scaled operand through and clear
		// VCC; the Newton-Raphson chain does the real work (Table 3).
		read(0, s0)
		perLane(func(l int) { dst[l] = s0[l] })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
		w.VCC = 0
	case gcn3.OpVDivFmas:
		read(0, s0)
		read(1, s1)
		read(2, s2)
		perLane(func(l int) { dst[l] = fma(t, s0[l], s1[l], s2[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)
	case gcn3.OpVDivFixup:
		// src0 = quotient estimate, src1 = denominator, src2 = numerator.
		read(0, s0)
		read(1, s1)
		read(2, s2)
		perLane(func(l int) { dst[l] = divFixup(t, s0[l], s1[l], s2[l]) })
		e.writeVecDst(w, in.Dst, t.Regs(), dst)

	// ---- Flat memory ----
	case gcn3.OpFlatLoadDword, gcn3.OpFlatLoadDwordx2,
		gcn3.OpFlatStoreDword, gcn3.OpFlatStoreDwordx2, gcn3.OpFlatAtomicAdd:
		return e.flat(w, in, res)

	// ---- LDS ----
	case gcn3.OpDSReadB32, gcn3.OpDSReadB64, gcn3.OpDSWriteB32,
		gcn3.OpDSWriteB64, gcn3.OpDSAddU32:
		return e.ds(w, in, res)

	default:
		return fmt.Errorf("emu: unimplemented GCN3 op %s", in.Op)
	}
	return nil
}

// divFixup applies the special-case handling of v_div_fixup.
func divFixup(t isa.DataType, q, den, num uint64) uint64 {
	if t == isa.TypeF32 {
		d, n := f32(den), f32(num)
		switch {
		case d == 0 && n == 0:
			return fromF32(float32(nan32()))
		case d == 0:
			return fromF32(n / d) // ±Inf with correct sign
		case n == 0:
			return fromF32(n / d) // ±0
		}
		return q
	}
	d, n := f64v(den), f64v(num)
	switch {
	case d == 0 && n == 0:
		return fromF64(nan64())
	case d == 0:
		return fromF64(n / d)
	case n == 0:
		return fromF64(n / d)
	}
	return q
}

func nan32() float32 { return float32(nan64()) }
func nan64() float64 {
	var z float64
	return z / z * 0 // quiet NaN via 0/0 — computed to avoid constant-folding error
}

// flat executes FLAT memory operations.
func (e *GCN3Engine) flat(w *Wave, in *gcn3.Inst, res *ExecResult) error {
	var addrs64 [isa.WavefrontSize]uint64
	e.readVecSrc(w, in.Srcs[0], 2, isa.TypeU64, &addrs64)
	size := 4
	if in.Op == gcn3.OpFlatLoadDwordx2 || in.Op == gcn3.OpFlatStoreDwordx2 {
		size = 8
	}
	m := e.Ctx.Mem
	switch in.Op {
	case gcn3.OpFlatLoadDword, gcn3.OpFlatLoadDwordx2:
		var data [isa.WavefrontSize]uint64
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if size == 8 {
				data[lane] = m.ReadU64(addrs64[lane])
			} else {
				data[lane] = uint64(m.ReadU32(addrs64[lane]))
			}
		}
		e.writeVecDst(w, in.Dst, size/4, &data)
	case gcn3.OpFlatStoreDword, gcn3.OpFlatStoreDwordx2:
		var data [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], size/4, isa.TypeB64, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if size == 8 {
				m.WriteU64(addrs64[lane], data[lane])
			} else {
				m.WriteU32(addrs64[lane], uint32(data[lane]))
			}
		}
		res.MemWrite = true
	case gcn3.OpFlatAtomicAdd:
		var data, ret [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], 1, isa.TypeU32, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			ret[lane] = uint64(m.AtomicAddU32(addrs64[lane], uint32(data[lane])))
		}
		e.writeVecDst(w, in.Dst, 1, &ret)
		res.MemWrite = true
	}
	res.MemKind = MemGlobal
	w.linesBuf = mem.CoalesceInto(w.linesBuf[:0], &addrs64, size, w.Exec)
	res.Lines = w.linesBuf
	return nil
}

// ldsBankConflicts returns the extra serialization cycles for per-lane LDS
// word addresses: the LDS has 32 banks of 4-byte words, and simultaneous
// accesses to different words in one bank serialize.
func ldsBankConflicts(addrs *[isa.WavefrontSize]uint64, mask isa.ExecMask) int {
	var count [32]int8
	var word [32]uint32
	maxC := 0
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if !mask.Bit(lane) {
			continue
		}
		w := uint32(addrs[lane] >> 2)
		b := w % 32
		if count[b] == 0 || word[b] == w {
			// Same-word accesses broadcast without conflict.
			if count[b] == 0 {
				count[b] = 1
				word[b] = w
			}
		} else {
			count[b]++
		}
		if int(count[b]) > maxC {
			maxC = int(count[b])
		}
	}
	if maxC <= 1 {
		return 0
	}
	return maxC - 1
}

// ds executes LDS operations.
func (e *GCN3Engine) ds(w *Wave, in *gcn3.Inst, res *ExecResult) error {
	var addrs [isa.WavefrontSize]uint64
	e.readVecSrc(w, in.Srcs[0], 1, isa.TypeU32, &addrs)
	size := 4
	if in.Op == gcn3.OpDSReadB64 || in.Op == gcn3.OpDSWriteB64 {
		size = 8
	}
	lds := w.WG.LDS
	rd := func(a uint64) uint64 {
		off := int(a) + int(in.Offset)
		if off+size > len(lds) {
			return 0
		}
		v := uint64(0)
		for i := 0; i < size; i++ {
			v |= uint64(lds[off+i]) << uint(8*i)
		}
		return v
	}
	wr := func(a uint64, v uint64) {
		off := int(a) + int(in.Offset)
		if off+size > len(lds) {
			return
		}
		for i := 0; i < size; i++ {
			lds[off+i] = byte(v >> uint(8*i))
		}
	}
	res.LDSBankConflicts = ldsBankConflicts(&addrs, w.Exec)
	switch in.Op {
	case gcn3.OpDSReadB32, gcn3.OpDSReadB64:
		var data [isa.WavefrontSize]uint64
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				data[lane] = rd(addrs[lane])
			}
		}
		e.writeVecDst(w, in.Dst, size/4, &data)
	case gcn3.OpDSWriteB32, gcn3.OpDSWriteB64:
		var data [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], size/4, isa.TypeB64, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				wr(addrs[lane], data[lane])
			}
		}
		res.MemWrite = true
	case gcn3.OpDSAddU32:
		// Per-lane sequential read-modify-write: same-address lanes
		// serialize, as the hardware's LDS atomic unit guarantees.
		var data, ret [isa.WavefrontSize]uint64
		e.readVecSrc(w, in.Srcs[1], 1, isa.TypeU32, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				old := rd(addrs[lane])
				wr(addrs[lane], uint64(uint32(old)+uint32(data[lane])))
				ret[lane] = old
			}
		}
		e.writeVecDst(w, in.Dst, 1, &ret)
		res.MemWrite = true
	}
	res.MemKind = MemLDS
	return nil
}
