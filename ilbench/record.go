package main

import (
	"fmt"
	"time"

	"ilsim/internal/emu"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
	"ilsim/internal/timing"
)

// recorder collects what the serial recording run observes at the emu
// boundary: host time inside Execute and the data-line traffic each
// executed instruction hands to the memory hierarchy.
type recorder struct {
	gpu    *timing.GPU
	numCUs int
	exec   time.Duration
	reqs   []lineReq
	lines  []uint64
}

// lineReq is one instruction's coalesced data access, stamped with the
// cycle whose drain replays it.
type lineReq struct {
	cycle         int64
	cu            int32
	scalar, write bool
	off, n        int32
}

// recEngine wraps one dispatch's engine. The timing core forks it once per
// compute unit, in CU-index order, and every clone records under its CU.
type recEngine struct {
	emu.Forker
	rec   *recorder
	forks int
}

func (e *recEngine) Fork(run *stats.Run, mv *mem.Memory) emu.Engine {
	cu := e.forks % e.rec.numCUs
	e.forks++
	return &recCU{Engine: e.Forker.Fork(run, mv), rec: e.rec, cu: int32(cu)}
}

// recCU is one compute unit's clone: it times Execute and records lines.
type recCU struct {
	emu.Engine
	rec *recorder
	cu  int32
}

func (e *recCU) Execute(w *emu.Wave) (emu.ExecResult, error) {
	start := time.Now()
	res, err := e.Engine.Execute(w)
	e.rec.exec += time.Since(start)
	if err == nil && len(res.Lines) > 0 && (res.MemKind == emu.MemGlobal || res.MemKind == emu.MemScalar) {
		scalar := res.MemKind == emu.MemScalar
		e.rec.reqs = append(e.rec.reqs, lineReq{
			cycle: e.rec.gpu.Now(), cu: e.cu, scalar: scalar, write: res.MemWrite && !scalar,
			off: int32(len(e.rec.lines)), n: int32(len(res.Lines)),
		})
		e.rec.lines = append(e.rec.lines, res.Lines...)
	}
	return res, err
}

// wrap returns the recording wrapper for a dispatch's engine.
func (r *recorder) wrap(eng emu.Engine) (emu.Engine, error) {
	fk, ok := eng.(emu.Forker)
	if !ok {
		return nil, fmt.Errorf("%s engine does not fork per compute unit", eng.Abstraction())
	}
	return &recEngine{Forker: fk, rec: r}, nil
}

// replayStats is the drain's cost on recorded traffic.
type replayStats struct {
	flush          time.Duration
	flushes, lines int64
}

// replay feeds the recorded traffic through a standalone Table 4 hierarchy
// wired the way timing.NewGPU wires it (per-CU L1D, L1I and scalar L1 shared
// by four CUs, banked L2, channelled DRAM; caches start empty), one
// Drain.Flush per recorded cycle, and times the flushes. Instruction-fetch
// traffic never crosses the emu boundary, so it is not replayed.
func replay(r *recorder, p timing.Params) replayStats {
	dram := mem.NewDRAM(p.DRAMChannels, mem.LineSize, p.DRAMLatency, p.DRAMOccupancy)
	l2 := mem.NewCache("L2", p.L2Size, mem.LineSize, p.L2Ways, p.L2HitLatency, true, dram, p.L2Banks)
	var l1ds, l1is, sl1s []*mem.Cache
	for i := 0; i < (p.NumCUs+3)/4; i++ {
		l1is = append(l1is, mem.NewCache(fmt.Sprintf("L1I%d", i),
			p.L1ISize, mem.LineSize, p.L1IWays, p.L1HitLatency, false, l2, 1))
		sl1s = append(sl1s, mem.NewCache(fmt.Sprintf("sL1%d", i),
			p.ScalarL1Size, mem.LineSize, p.ScalarL1Ways, p.ScalarHitLatency, false, l2, 1))
	}
	bufs := make([]mem.RequestBuffer, p.NumCUs)
	dL1D := make([]int, p.NumCUs)
	dSL1 := make([]int, p.NumCUs)
	srcs := make([]mem.DrainSource, p.NumCUs)
	complete := func(int, int64) {}
	for i := range bufs {
		l1d := mem.NewCache(fmt.Sprintf("L1D%d", i),
			p.L1DSize, mem.LineSize, p.L1DWays, p.L1HitLatency, false, l2, 1)
		l1ds = append(l1ds, l1d)
		dL1D[i] = bufs[i].Register(l1d)
		bufs[i].Register(l1is[i/4])
		dSL1[i] = bufs[i].Register(sl1s[i/4])
		srcs[i] = mem.DrainSource{Buf: &bufs[i], Complete: complete}
	}
	l1s := append(append(append([]*mem.Cache{}, l1ds...), l1is...), sl1s...)
	d := mem.NewDrain(l1s, srcs, l2, dram)

	var st replayStats
	flush := func(now int64) {
		start := time.Now()
		d.Flush(now, nil)
		st.flush += time.Since(start)
		st.flushes++
	}
	for i, q := range r.reqs {
		if i > 0 && q.cycle != r.reqs[i-1].cycle {
			flush(r.reqs[i-1].cycle)
		}
		dest := dL1D[q.cu]
		if q.scalar {
			dest = dSL1[q.cu]
		}
		bufs[q.cu].Append(dest, r.lines[q.off:q.off+q.n], q.write, 0)
		st.lines += int64(q.n)
	}
	if len(r.reqs) > 0 {
		flush(r.reqs[len(r.reqs)-1].cycle)
	}
	return st
}
