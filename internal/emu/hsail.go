package emu

import (
	"fmt"

	"ilsim/internal/hsa"
	"ilsim/internal/hsail"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// HSAILEngine executes HSAIL kernels the way IL-level simulators do:
// one SIMT instruction at a time per wavefront, with control-flow divergence
// managed by a simulator reconvergence stack using immediate post-dominator
// reconvergence points, a simulator-defined ABI (geometry and kernarg state
// serviced from dispatch structures rather than registers/memory), and every
// operand residing in the virtual vector register file.
type HSAILEngine struct {
	Ctx *hsa.Context
	K   *hsail.Kernel
	CFG *kernel.CFG
	D   *hsa.Dispatch
	Col *Collector

	// Base is the simulated-memory address where the decoded kernel's
	// fixed 8-byte instruction handles live.
	Base uint64

	flat       []hsail.Inst
	blockStart []int
	instBlock  []int
	// infos is the per-PC decode cache: scheduling metadata is static per
	// instruction, so Peek is a table lookup on the hot path.
	infos []InstInfo

	// vs0..vdst are Execute's lane scratch buffers, hoisted to the engine
	// so the hot path does not zero 2KB of stack per instruction. Reuse is
	// safe because sources are filled for all lanes (readSrc) and dst is
	// both written and consumed under EXEC (perLane / writeDst), so stale
	// lanes are never observable. They also make Execute non-reentrant;
	// each compute unit executes on its own clone (Fork).
	vs0, vs1, vs2, vdst [isa.WavefrontSize]uint64
}

var _ Forker = (*HSAILEngine)(nil)

// NewHSAILEngine loads a kernel for a dispatch. base is the code address the
// loader assigned (each instruction occupies hsail.InstBytes there).
func NewHSAILEngine(ctx *hsa.Context, k *hsail.Kernel, cfg *kernel.CFG, d *hsa.Dispatch, base uint64, col *Collector) *HSAILEngine {
	e := &HSAILEngine{Ctx: ctx, K: k, CFG: cfg, D: d, Col: col, Base: base}
	for _, b := range k.Blocks {
		e.blockStart = append(e.blockStart, len(e.flat))
		for _, in := range b.Insts {
			e.flat = append(e.flat, in)
			e.instBlock = append(e.instBlock, b.ID)
		}
	}
	e.infos = make([]InstInfo, len(e.flat))
	for i := range e.infos {
		e.infos[i] = e.decodeInfo(i)
	}
	return e
}

// Fork returns an execution clone for one compute unit: shared decode
// state, private lane scratch (the struct copy), a private collector
// targeting run. mv is ignored.
func (e *HSAILEngine) Fork(run *stats.Run, mv *mem.Memory) Engine {
	f := *e
	f.Col = e.Col.Fork(run)
	return &f
}

// Abstraction identifies the engine.
func (e *HSAILEngine) Abstraction() string { return "HSAIL" }

// CodeBytes returns the 8-byte-per-instruction loaded footprint.
func (e *HSAILEngine) CodeBytes() uint64 { return uint64(len(e.flat)) * hsail.InstBytes }

// LDSBytes returns the workgroup LDS demand.
func (e *HSAILEngine) LDSBytes() int { return e.K.GroupSize }

// RegDemand returns the register demand: all registers are vector slots.
func (e *HSAILEngine) RegDemand() (int, int) { return e.K.NumRegSlots, 0 }

func (e *HSAILEngine) pcOf(idx int) uint64 { return e.Base + uint64(idx)*hsail.InstBytes }

func (e *HSAILEngine) idxOf(pc uint64) (int, error) {
	if pc < e.Base || (pc-e.Base)%hsail.InstBytes != 0 {
		return 0, fmt.Errorf("emu: bad HSAIL PC %#x", pc)
	}
	idx := int((pc - e.Base) / hsail.InstBytes)
	if idx >= len(e.flat) {
		return 0, fmt.Errorf("emu: HSAIL PC %#x past end of kernel", pc)
	}
	return idx, nil
}

// InstString disassembles the instruction at pc.
func (e *HSAILEngine) InstString(pc uint64) string {
	idx, err := e.idxOf(pc)
	if err != nil {
		return err.Error()
	}
	return e.flat[idx].String()
}

// NewWave initializes wavefront state: the simulator-defined ABI needs no
// register initialization at all — dispatch state is serviced directly.
func (e *HSAILEngine) NewWave(wg *WGState, waveID int) *Wave {
	first := waveID * isa.WavefrontSize
	lanes := wg.Info.Size - first
	if lanes > isa.WavefrontSize {
		lanes = isa.WavefrontSize
	}
	w := &Wave{
		WG: wg, WaveID: waveID, FirstWI: first, NumLanes: lanes,
		PC:    e.Base,
		Exec:  isa.FullMask(lanes),
		VRegs: make([][isa.WavefrontSize]uint32, e.K.NumRegSlots),
		CRegs: make([]uint64, e.K.NumCRegs),
	}
	if e.Col != nil && e.Col.TrackReuse {
		w.Reuse = stats.NewReuseTracker(e.K.NumRegSlots)
	}
	return w
}

// Peek returns the decode-cache entry for the instruction at w.PC.
func (e *HSAILEngine) Peek(w *Wave) (*InstInfo, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return nil, err
	}
	return &e.infos[idx], nil
}

// decodeInfo builds the scheduling metadata of instruction idx.
func (e *HSAILEngine) decodeInfo(idx int) InstInfo {
	in := &e.flat[idx]
	info := InstInfo{
		PC:        e.pcOf(idx),
		SizeBytes: hsail.InstBytes,
		Category:  in.Category(),
	}
	addReg := func(l *RegList, o hsail.Operand, t isa.DataType) {
		if o.Kind == hsail.OperReg {
			l.Add(int(o.Reg), t.Regs())
		}
	}
	srcT := in.Type
	if in.SrcType != isa.TypeNone {
		srcT = in.SrcType
	}
	for i, s := range in.SrcSlice() {
		t := srcT
		if in.Op == hsail.OpCmov && i == 0 {
			t = isa.TypeNone
		}
		addReg(&info.VRFReads, s, t)
	}
	if in.Op.IsMemory() || in.Op == hsail.OpLda {
		addReg(&info.VRFReads, in.Addr.Base, isa.TypeU64)
	}
	dt := in.Type
	if in.Op == hsail.OpLda {
		dt = isa.TypeU64
	}
	if in.Dst.Kind == hsail.OperReg {
		addReg(&info.VRFWrites, in.Dst, dt)
	}
	switch in.Op {
	case hsail.OpDiv, hsail.OpRem, hsail.OpSqrt, hsail.OpRsqrt:
		info.LatClass = LatTrans
	case hsail.OpLd, hsail.OpSt, hsail.OpAtomicAdd:
		switch in.Seg {
		case hsail.SegGroup:
			info.LatClass = LatLDS
			info.IsLGKM = true
		case hsail.SegKernarg:
			// Serviced from simulator dispatch state (no memory access).
			info.LatClass = LatALU
		default:
			info.LatClass = LatMem
			info.IsVMem = true
		}
	case hsail.OpBr, hsail.OpCBr:
		info.LatClass = LatBranch
		info.IsBranch = true
	case hsail.OpBarrier:
		info.LatClass = LatNop
		info.IsBarrier = true
	case hsail.OpRet:
		info.LatClass = LatNop
		info.IsEndPgm = true
	case hsail.OpNop:
		info.LatClass = LatNop
	default:
		if in.Type.Regs() == 2 {
			info.LatClass = LatALU64
		} else {
			info.LatClass = LatALU
		}
	}
	info.WaitVM, info.WaitLGKM = -1, -1
	return info
}

// readSrc gathers a source operand's per-lane raw values.
func (e *HSAILEngine) readSrc(w *Wave, o hsail.Operand, t isa.DataType, vals *[isa.WavefrontSize]uint64) {
	switch o.Kind {
	case hsail.OperImm:
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = o.Imm
		}
	case hsail.OperReg:
		slot := int(o.Reg)
		lo := &w.VRegs[slot]
		e.Col.OnVRFValue(false, lo, w.Exec)
		e.Col.OnVRFSlot(w, slot)
		if t.Regs() == 2 {
			hi := &w.VRegs[slot+1]
			e.Col.OnVRFValue(false, hi, w.Exec)
			e.Col.OnVRFSlot(w, slot+1)
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane]) | uint64(hi[lane])<<32
			}
		} else {
			for lane := 0; lane < isa.WavefrontSize; lane++ {
				vals[lane] = uint64(lo[lane])
			}
		}
	case hsail.OperCReg:
		m := w.CRegs[o.Reg]
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			vals[lane] = m >> uint(lane) & 1
		}
	}
}

// writeDst stores per-lane results into a destination register under the
// current execution mask.
func (e *HSAILEngine) writeDst(w *Wave, o hsail.Operand, t isa.DataType, vals *[isa.WavefrontSize]uint64) {
	slot := int(o.Reg)
	lo := &w.VRegs[slot]
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if w.Exec.Bit(lane) {
			lo[lane] = uint32(vals[lane])
		}
	}
	e.Col.OnVRFValue(true, lo, w.Exec)
	e.Col.OnVRFSlot(w, slot)
	if t.Regs() == 2 {
		hi := &w.VRegs[slot+1]
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				hi[lane] = uint32(vals[lane] >> 32)
			}
		}
		e.Col.OnVRFValue(true, hi, w.Exec)
		e.Col.OnVRFSlot(w, slot+1)
	}
}

// laneAbsFlatID returns the absolute flat work-item ID for a lane.
func (w *Wave) laneAbsFlatID(lane int) uint64 {
	return w.WG.Info.FirstAbsFlatID + uint64(w.FirstWI+lane)
}

// hsailBinKind and hsailUnKind map ALU opcodes to evaluator kinds (hoisted
// to package scope so Execute does not rebuild them per instruction).
var hsailBinKind = map[hsail.Op]binOpKind{
	hsail.OpAdd: binAdd, hsail.OpSub: binSub, hsail.OpMul: binMul,
	hsail.OpMulHi: binMulHi, hsail.OpDiv: binDiv, hsail.OpRem: binRem,
	hsail.OpMin: binMin, hsail.OpMax: binMax, hsail.OpAnd: binAnd,
	hsail.OpOr: binOr, hsail.OpXor: binXor, hsail.OpShl: binShl,
	hsail.OpShr: binShr,
}

var hsailUnKind = map[hsail.Op]unOpKind{
	hsail.OpAbs: unAbs, hsail.OpNeg: unNeg, hsail.OpNot: unNot,
	hsail.OpSqrt: unSqrt, hsail.OpRsqrt: unRsqrt,
}

// Execute commits the instruction at w.PC.
func (e *HSAILEngine) Execute(w *Wave) (ExecResult, error) {
	idx, err := e.idxOf(w.PC)
	if err != nil {
		return ExecResult{}, err
	}
	in := &e.flat[idx]
	info := &e.infos[idx]
	res := ExecResult{ActiveLanes: w.Exec.PopCount()}
	e.Col.TickReuse(w)
	seqPC := w.PC + hsail.InstBytes

	s0, s1, s2, dst := &e.vs0, &e.vs1, &e.vs2, &e.vdst
	srcT := in.Type
	if in.SrcType != isa.TypeNone {
		srcT = in.SrcType
	}
	readSrcs := func() {
		srcs := in.SrcSlice()
		if len(srcs) > 0 {
			t := srcT
			if in.Op == hsail.OpCmov {
				t = isa.TypeNone
			}
			e.readSrc(w, srcs[0], t, s0)
		}
		if len(srcs) > 1 {
			e.readSrc(w, srcs[1], srcT, s1)
		}
		if len(srcs) > 2 {
			e.readSrc(w, srcs[2], srcT, s2)
		}
	}

	perLane := func(f func(lane int)) {
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if w.Exec.Bit(lane) {
				f(lane)
			}
		}
	}

	switch in.Op {
	case hsail.OpNop:
		// nothing
	case hsail.OpMov:
		readSrcs()
		perLane(func(l int) { dst[l] = s0[l] })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpCvt:
		readSrcs()
		perLane(func(l int) { dst[l] = convert(in.Type, in.SrcType, s0[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpAdd, hsail.OpSub, hsail.OpMul, hsail.OpMulHi, hsail.OpDiv,
		hsail.OpRem, hsail.OpMin, hsail.OpMax, hsail.OpAnd, hsail.OpOr,
		hsail.OpXor, hsail.OpShl, hsail.OpShr:
		readSrcs()
		kind := hsailBinKind[in.Op]
		perLane(func(l int) { dst[l] = binOp(kind, in.Type, s0[l], s1[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpMad, hsail.OpFma:
		readSrcs()
		perLane(func(l int) { dst[l] = fma(in.Type, s0[l], s1[l], s2[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpAbs, hsail.OpNeg, hsail.OpNot, hsail.OpSqrt, hsail.OpRsqrt:
		readSrcs()
		kind := hsailUnKind[in.Op]
		perLane(func(l int) { dst[l] = unOp(kind, in.Type, s0[l]) })
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpCmp:
		readSrcs()
		var m uint64
		perLane(func(l int) {
			if compare(in.Cmp, in.SrcType, s0[l], s1[l]) {
				m |= 1 << uint(l)
			}
		})
		// Merge under mask: inactive lanes keep their old bit.
		old := w.CRegs[in.Dst.Reg]
		w.CRegs[in.Dst.Reg] = old&^uint64(w.Exec) | m
	case hsail.OpCmov:
		readSrcs()
		perLane(func(l int) {
			if s0[l] != 0 {
				dst[l] = s1[l]
			} else {
				dst[l] = s2[l]
			}
		})
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpWorkItemAbsId, hsail.OpWorkItemId, hsail.OpWorkGroupId,
		hsail.OpWorkGroupSize, hsail.OpGridSize:
		e.geometry(w, in, dst)
		e.writeDst(w, in.Dst, in.Type, dst)
	case hsail.OpLda:
		readSrcs()
		perLane(func(l int) {
			base := e.segmentBase(w, in.Seg, l)
			var regOff uint64
			if in.Addr.Base.Kind == hsail.OperReg {
				lo := w.VRegs[in.Addr.Base.Reg][l]
				hi := w.VRegs[in.Addr.Base.Reg+1][l]
				regOff = uint64(lo) | uint64(hi)<<32
			}
			dst[l] = base + regOff + uint64(int64(in.Addr.Offset))
		})
		if in.Addr.Base.Kind == hsail.OperReg {
			e.Col.OnVRFSlot(w, int(in.Addr.Base.Reg))
			e.Col.OnVRFSlot(w, int(in.Addr.Base.Reg)+1)
		}
		e.writeDst(w, in.Dst, isa.TypeU64, dst)
	case hsail.OpLd, hsail.OpSt, hsail.OpAtomicAdd:
		if err := e.memory(w, in, &res); err != nil {
			return res, err
		}
	case hsail.OpBarrier:
		res.IsBarrier = true
	case hsail.OpRet:
		w.Done = true
		res.IsEndPgm = true
		e.Col.OnCommit(info.Category, res.ActiveLanes)
		return res, nil
	case hsail.OpBr, hsail.OpCBr:
		e.branch(w, in, idx, seqPC, &res)
		e.Col.OnCommit(info.Category, res.ActiveLanes)
		return res, nil
	default:
		return res, fmt.Errorf("emu: unimplemented HSAIL op %s", in.Op)
	}

	w.PC = seqPC
	e.rsArrival(w, &res)
	e.Col.OnCommit(info.Category, res.ActiveLanes)
	return res, nil
}

// geometry services the dispatch-geometry query ops from simulator state —
// the "simulator-defined ABI" of IL execution (paper §III.A.1).
func (e *HSAILEngine) geometry(w *Wave, in *hsail.Inst, dst *[isa.WavefrontSize]uint64) {
	d := w.WG.Dispatch
	p := d.Packet
	dim := int(in.Dim)
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if !w.Exec.Bit(lane) {
			continue
		}
		wiFlat := w.FirstWI + lane
		switch in.Op {
		case hsail.OpWorkItemAbsId:
			dst[lane] = uint64(d.AbsID(w.WG.Info, wiFlat)[dim])
		case hsail.OpWorkItemId:
			dst[lane] = uint64(d.LocalID(wiFlat)[dim])
		case hsail.OpWorkGroupId:
			dst[lane] = uint64(w.WG.Info.ID[dim])
		case hsail.OpWorkGroupSize:
			dst[lane] = uint64(p.WorkgroupSize[dim])
		case hsail.OpGridSize:
			dst[lane] = uint64(p.GridSize[dim])
		}
	}
}

// segmentBase resolves the implicit base address of a segment for a lane,
// state the IL never sees in registers.
func (e *HSAILEngine) segmentBase(w *Wave, seg hsail.Segment, lane int) uint64 {
	d := w.WG.Dispatch
	switch seg {
	case hsail.SegKernarg:
		return d.Packet.KernargAddress
	case hsail.SegPrivate:
		return d.PrivateBase + w.laneAbsFlatID(lane)*uint64(d.PrivateStride)
	case hsail.SegSpill:
		return d.SpillBase + w.laneAbsFlatID(lane)*uint64(d.SpillStride)
	default:
		return 0
	}
}

// memory executes ld/st/atomic for every active lane and coalesces the
// generated addresses into line requests for the timing model.
func (e *HSAILEngine) memory(w *Wave, in *hsail.Inst, res *ExecResult) error {
	t := in.Type
	size := t.Regs() * 4
	var addrs [isa.WavefrontSize]uint64
	var regOff [isa.WavefrontSize]uint64
	if in.Addr.Base.Kind == hsail.OperReg {
		e.readSrc(w, hsail.Operand{Kind: hsail.OperReg, Reg: in.Addr.Base.Reg}, isa.TypeU64, &regOff)
	}
	var argOff uint64
	if in.Addr.Base.Kind == hsail.OperArgSym {
		argOff = uint64(e.K.Args[in.Addr.Base.Reg].Offset)
	}
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if !w.Exec.Bit(lane) {
			continue
		}
		addrs[lane] = e.segmentBase(w, in.Seg, lane) + regOff[lane] + argOff + uint64(int64(in.Addr.Offset))
	}

	var data [isa.WavefrontSize]uint64
	mmem := e.Ctx.Mem
	isLDS := in.Seg == hsail.SegGroup
	switch in.Op {
	case hsail.OpLd:
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if isLDS {
				data[lane] = e.ldsRead(w, addrs[lane], size)
			} else if size == 8 {
				data[lane] = mmem.ReadU64(addrs[lane])
			} else {
				data[lane] = uint64(mmem.ReadU32(addrs[lane]))
			}
		}
		e.writeDst(w, in.Dst, t, &data)
	case hsail.OpSt:
		e.readSrc(w, in.Srcs[0], t, &data)
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if isLDS {
				e.ldsWrite(w, addrs[lane], size, data[lane])
			} else if size == 8 {
				mmem.WriteU64(addrs[lane], data[lane])
			} else {
				mmem.WriteU32(addrs[lane], uint32(data[lane]))
			}
		}
		res.MemWrite = true
	case hsail.OpAtomicAdd:
		e.readSrc(w, in.Srcs[0], t, &data)
		var ret [isa.WavefrontSize]uint64
		for lane := 0; lane < isa.WavefrontSize; lane++ {
			if !w.Exec.Bit(lane) {
				continue
			}
			if isLDS {
				old := e.ldsRead(w, addrs[lane], size)
				e.ldsWrite(w, addrs[lane], size, old+data[lane])
				ret[lane] = old
			} else {
				ret[lane] = uint64(mmem.AtomicAddU32(addrs[lane], uint32(data[lane])))
			}
		}
		e.writeDst(w, in.Dst, t, &ret)
		res.MemWrite = true
	}
	switch in.Seg {
	case hsail.SegGroup:
		res.MemKind = MemLDS
		res.LDSBankConflicts = ldsBankConflicts(&addrs, w.Exec)
	case hsail.SegKernarg:
		// Kernarg loads are serviced from the emulated runtime's own
		// state: under HSAIL they never reach the memory system.
		res.MemKind = MemNone
	default:
		res.MemKind = MemGlobal
		w.linesBuf = mem.CoalesceInto(w.linesBuf[:0], &addrs, size, w.Exec)
		res.Lines = w.linesBuf
	}
	return nil
}

func (e *HSAILEngine) ldsRead(w *Wave, addr uint64, size int) uint64 {
	lds := w.WG.LDS
	if int(addr)+size > len(lds) {
		return 0
	}
	v := uint64(0)
	for i := 0; i < size; i++ {
		v |= uint64(lds[int(addr)+i]) << uint(8*i)
	}
	return v
}

func (e *HSAILEngine) ldsWrite(w *Wave, addr uint64, size int, v uint64) {
	lds := w.WG.LDS
	if int(addr)+size > len(lds) {
		return
	}
	for i := 0; i < size; i++ {
		lds[int(addr)+i] = byte(v >> uint(8*i))
	}
}

// branch implements the reconvergence-stack discipline of IL simulation
// (paper §III.C.1 and Figure 3b).
func (e *HSAILEngine) branch(w *Wave, in *hsail.Inst, idx int, seqPC uint64, res *ExecResult) {
	curBlock := e.instBlock[idx]
	targetPC := e.pcOf(e.blockStart[in.Target])

	if in.Op == hsail.OpBr {
		w.PC = targetPC
		res.Redirected = targetPC != seqPC
		e.rsArrival(w, res)
		return
	}

	// Conditional branch: evaluate per-lane condition.
	cond := w.CRegs[in.Srcs[0].Reg]
	taken := isa.ExecMask(cond) & w.Exec
	fall := w.Exec &^ taken

	switch {
	case taken == w.Exec: // uniformly taken
		w.PC = targetPC
		res.Redirected = targetPC != seqPC
	case taken == 0: // uniformly not taken
		w.PC = seqPC
	default: // divergent
		rpcBlock := e.CFG.IPDom[curBlock]
		if rpcBlock < 0 {
			// No reconvergence point: treat as taken-first with exit.
			rpcBlock = len(e.CFG.Succs) - 1
		}
		rpc := e.pcOf(e.blockStart[rpcBlock])
		switch {
		case targetPC == rpc:
			// Forward skip to the reconvergence point (if-then guard):
			// taken lanes wait at the RPC; no jump, no IB flush — the
			// case Figure 3's step ② highlights.
			e.ensureRestore(w, rpc)
			w.Exec = fall
			w.PC = seqPC
		case seqPC == rpc:
			// Backward latch (do-while): exiting lanes wait at the
			// join; remaining lanes jump back to the loop header.
			e.ensureRestore(w, rpc)
			w.Exec = taken
			w.PC = targetPC
			res.Redirected = true
		default:
			// If-then-else: execute the taken path first; push the
			// fall-through path and the restore entry.
			w.RS = append(w.RS,
				RSEntry{RPC: rpc, PC: rpc, Mask: w.Exec},
				RSEntry{RPC: rpc, PC: seqPC, Mask: fall},
			)
			w.Exec = taken
			w.PC = targetPC
			res.Redirected = true
		}
	}
	e.rsArrival(w, res)
}

// ensureRestore pushes a restore entry for rpc unless one already exists
// anywhere on the stack: lanes branching to an rpc that an enclosing
// construct will restore simply wait there (the paper's Figure 3 step 2 —
// "the RS detects that the branch in BB2 goes to the RPC").
func (e *HSAILEngine) ensureRestore(w *Wave, rpc uint64) {
	for i := len(w.RS) - 1; i >= 0; i-- {
		if w.RS[i].RPC == rpc && w.RS[i].PC == rpc {
			return
		}
	}
	w.RS = append(w.RS, RSEntry{RPC: rpc, PC: rpc, Mask: w.Exec})
}

// rsArrival pops reconvergence-stack entries whose RPC the wavefront has
// reached. Every pop redirects the front end — the simulator-initiated jumps
// that flush the instruction buffer (paper §III.C.1).
func (e *HSAILEngine) rsArrival(w *Wave, res *ExecResult) {
	for n := len(w.RS); n > 0 && w.PC == w.RS[n-1].RPC; n = len(w.RS) {
		entry := w.RS[n-1]
		w.RS = w.RS[:n-1]
		w.Exec = entry.Mask
		w.PC = entry.PC
		res.Redirected = true
	}
}
