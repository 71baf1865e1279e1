// Package timing implements the shared compute-unit timing model of the
// paper's Figure 2 / Table 4: per-CU wavefront slots feeding four 16-lane
// SIMD engines, one scalar unit, a banked vector register file with an
// operand-collector conflict model, per-wavefront instruction buffers fed by
// a shared instruction cache, and local/global memory pipelines into a
// two-level cache hierarchy with channeled DRAM.
//
// One model times BOTH abstractions. The ISA-visible differences live in the
// engines (package emu) and in two mode-dependent mechanisms the paper calls
// out explicitly:
//
//   - HSAIL needs a hardware scoreboard: issue stalls until every operand
//     register's pending write has completed, "even though the logic does
//     not exist in the actual GPU" (§III.B.2).
//   - GCN3 relies on finalizer-inserted s_waitcnt/s_nop: issue stalls only
//     at explicit waitcnt bounds, tracked by in-order vmcnt/lgkmcnt counters.
package timing

import (
	"context"
	"errors"
	"fmt"

	"ilsim/internal/emu"
	"ilsim/internal/hsa"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// ErrBudgetExceeded marks a run aborted because it exhausted its cycle or
// instruction budget (Watchdog.MaxCycles / Watchdog.MaxInsts). It is the
// mechanism that bounds a runaway or livelocked simulation; core and the
// experiment engine re-export it so callers can classify the failure with
// errors.Is at any layer.
var ErrBudgetExceeded = errors.New("simulation budget exceeded")

// DefaultCheckEvery is the watchdog check period in simulated cycles when
// Watchdog.CheckEvery is unset. The check is a context poll plus two integer
// comparisons, so even the default keeps overhead far below the per-cycle
// model cost while bounding kill latency to ~1k cycles.
const DefaultCheckEvery = 1024

// Watchdog bounds a GPU run cooperatively: every CheckEvery simulated
// cycles (and once at each dispatch entry) the timing loop polls the
// context and the budgets instead of running open-loop. A zero Watchdog
// disables all checks.
type Watchdog struct {
	// Ctx, when non-nil, cancels the run: the first check after the
	// context ends aborts the dispatch with the context's cause.
	Ctx context.Context
	// MaxCycles bounds total simulated cycles since GPU creation
	// (0 = unlimited).
	MaxCycles int64
	// MaxInsts bounds committed wavefront instructions (0 = unlimited).
	MaxInsts uint64
	// CheckEvery is the check period in cycles (0 = DefaultCheckEvery).
	CheckEvery int64
}

func (w Watchdog) enabled() bool {
	return w.Ctx != nil || w.MaxCycles > 0 || w.MaxInsts > 0
}

func (w Watchdog) every() int64 {
	if w.CheckEvery > 0 {
		return w.CheckEvery
	}
	return DefaultCheckEvery
}

// check reports why the run must stop, or nil to continue. insts is the
// committed-instruction total (only consulted when MaxInsts is set; callers
// may pass 0 otherwise).
func (w Watchdog) check(now int64, insts uint64) error {
	if w.Ctx != nil && w.Ctx.Err() != nil {
		return fmt.Errorf("timing: run canceled at cycle %d: %w", now, context.Cause(w.Ctx))
	}
	if w.MaxCycles > 0 && now >= w.MaxCycles {
		return fmt.Errorf("timing: %w: %d cycles >= budget %d", ErrBudgetExceeded, now, w.MaxCycles)
	}
	if w.MaxInsts > 0 && insts >= w.MaxInsts {
		return fmt.Errorf("timing: %w: %d instructions >= budget %d", ErrBudgetExceeded, insts, w.MaxInsts)
	}
	return nil
}

// Params configures the timing model (core.Config maps onto it).
type Params struct {
	NumCUs     int
	SIMDsPerCU int
	WFSlots    int
	VRFBanks   int
	// IBBytes is the per-wavefront instruction-buffer capacity in bytes.
	IBBytes int
	// FetchWidth is the number of wavefront fetch requests a CU may start
	// per cycle.
	FetchWidth int
	// VRFRegsPerCU / SRFRegsPerCU bound occupancy (Table 4: 2048/800).
	VRFRegsPerCU int
	SRFRegsPerCU int

	// Execution latencies (cycles from issue to result availability).
	ALULatency    int64
	ALU64Latency  int64
	TransLatency  int64
	ScalarLatency int64
	BranchLatency int64
	LDSLatency    int64

	// Issue occupancies (cycles a unit stays busy per instruction).
	SIMDIssueCycles   int64
	VMemIssueCycles   int64
	ScalarIssueCycles int64

	// LaunchOverhead is the packet-processor cost per dispatch, cycles.
	LaunchOverhead int64

	// Cache geometry.
	L1DSize, L1DWays           int
	L1ISize, L1IWays           int
	ScalarL1Size, ScalarL1Ways int
	L2Size, L2Ways             int
	// L2Banks set-interleaves the shared L2 into independent banks, each
	// with its own request port — the unit of phase-2 drain parallelism
	// (DRAM channels are banks of their own already).
	L2Banks          int
	L1HitLatency     int64
	L2HitLatency     int64
	ScalarHitLatency int64
	DRAMChannels     int
	DRAMLatency      int64
	DRAMOccupancy    int64
}

// DefaultParams returns the Table 4 machine with this model's latencies.
func DefaultParams() Params {
	return Params{
		NumCUs: 8, SIMDsPerCU: 4, WFSlots: 40, VRFBanks: 16,
		IBBytes: 64, FetchWidth: 1,
		VRFRegsPerCU: 2048, SRFRegsPerCU: 800,
		ALULatency: 8, ALU64Latency: 12, TransLatency: 16,
		ScalarLatency: 1, BranchLatency: 4, LDSLatency: 8,
		SIMDIssueCycles: 4, VMemIssueCycles: 4, ScalarIssueCycles: 1,
		LaunchOverhead: 1500,
		L1DSize:        16 << 10, L1DWays: 0,
		L1ISize: 16 << 10, L1IWays: 8,
		ScalarL1Size: 32 << 10, ScalarL1Ways: 8,
		L2Size: 512 << 10, L2Ways: 16, L2Banks: 8,
		L1HitLatency: 16, L2HitLatency: 64, ScalarHitLatency: 16,
		DRAMChannels: 32, DRAMLatency: 160, DRAMOccupancy: 4,
	}
}

// GPU is the timed device: CUs plus the shared memory system.
type GPU struct {
	P   Params
	Run *stats.Run
	// WD bounds the run (cancellation and budgets); set it before the
	// first RunDispatch. The zero value runs unbounded.
	WD Watchdog
	// NoSkip forces the dispatcher to tick every cycle instead of skipping
	// provably-inert spans. Results are byte-identical either way (the
	// determinism tests assert it); the flag exists for debugging and for
	// those tests.
	NoSkip bool
	// Parallelism is ignored: the timing loop is serial.
	//
	// Deprecated: kept only because the ilbench module still sets it.
	Parallelism int
	// MemParallelism is ignored: the memory drain is serial.
	//
	// Deprecated: kept only because the ilbench module still sets it.
	MemParallelism int
	// Mem is ignored: engines read and write the dispatch's functional
	// memory directly.
	//
	// Deprecated: kept only because the ilbench module still sets it.
	Mem *mem.Memory

	cus  []*cu
	l2   *mem.Cache
	dram *mem.DRAM
	// iCaches / sCaches are shared per 4 CUs (Table 4).
	iCaches []*mem.Cache
	sCaches []*mem.Cache

	// drain replays the CUs' deferred cache accesses through the banked
	// hierarchy as level waves (see mem.Drain).
	drain *mem.Drain

	now int64
	// wdTick counts cycles toward the next watchdog check; it persists
	// across dispatches so short kernels cannot starve the watchdog.
	wdTick int64
}

// NewGPU builds the device.
func NewGPU(p Params, run *stats.Run) *GPU {
	g := &GPU{P: p, Run: run}
	g.dram = mem.NewDRAM(p.DRAMChannels, mem.LineSize, p.DRAMLatency, p.DRAMOccupancy)
	g.l2 = mem.NewCache("L2", p.L2Size, mem.LineSize, p.L2Ways, p.L2HitLatency, true, g.dram, p.L2Banks)
	nShared := (p.NumCUs + 3) / 4
	for i := 0; i < nShared; i++ {
		g.iCaches = append(g.iCaches, mem.NewCache(fmt.Sprintf("L1I%d", i),
			p.L1ISize, mem.LineSize, p.L1IWays, p.L1HitLatency, false, g.l2, 1))
		g.sCaches = append(g.sCaches, mem.NewCache(fmt.Sprintf("sL1%d", i),
			p.ScalarL1Size, mem.LineSize, p.ScalarL1Ways, p.ScalarHitLatency, false, g.l2, 1))
	}
	for i := 0; i < p.NumCUs; i++ {
		c := newCU(g, i)
		c.l1d = mem.NewCache(fmt.Sprintf("L1D%d", i),
			p.L1DSize, mem.LineSize, p.L1DWays, p.L1HitLatency, false, g.l2, 1)
		c.l1i = g.iCaches[i/4]
		c.sl1 = g.sCaches[i/4]
		c.l1dDest = c.reqs.Register(c.l1d)
		c.l1iDest = c.reqs.Register(c.l1i)
		c.sl1Dest = c.reqs.Register(c.sl1)
		g.cus = append(g.cus, c)
	}
	// Wire the drain: level-1 caches in replay order (per-CU L1Ds, then the
	// shared I- and scalar caches), sources in CU-index order. This order
	// defines each bank's replay sequence.
	l1s := make([]*mem.Cache, 0, p.NumCUs+2*nShared)
	srcs := make([]mem.DrainSource, 0, p.NumCUs)
	for _, c := range g.cus {
		l1s = append(l1s, c.l1d)
		srcs = append(srcs, mem.DrainSource{Buf: &c.reqs, Complete: c.completeFn})
	}
	l1s = append(l1s, g.iCaches...)
	l1s = append(l1s, g.sCaches...)
	g.drain = mem.NewDrain(l1s, srcs, g.l2, g.dram)
	return g
}

// Now returns the current cycle.
func (g *GPU) Now() int64 { return g.now }

// drainFlush replays the cycle's deferred cache accesses through the
// banked hierarchy (see mem.Drain) and clears the CUs' pending-request
// metadata the completion callbacks indexed into.
func (g *GPU) drainFlush(now int64) {
	g.drain.Flush(now, nil)
	for _, c := range g.cus {
		c.pend = c.pend[:0]
	}
}

// totalInsts sums committed instructions across the root run and every CU
// shard (shards hold a dispatch's counts until Finalize merges them).
func (g *GPU) totalInsts() uint64 {
	var n uint64
	if g.Run != nil {
		n = g.Run.TotalInsts()
	}
	for _, c := range g.cus {
		n += c.run.TotalInsts()
	}
	return n
}

// wdInsts returns the instruction total for a watchdog check, skipping the
// shard scan when no instruction budget is set.
func (g *GPU) wdInsts() uint64 {
	if g.WD.MaxInsts == 0 {
		return 0
	}
	return g.totalInsts()
}

// prepareEngines binds each CU's execution engine for the coming dispatch.
// Forkable engines get one clone per CU, forked in CU-index order, feeding
// that CU's stat shard, so collector sampling state (an order-dependent
// counter) advances per CU.
func (g *GPU) prepareEngines(eng emu.Engine) {
	fk, ok := eng.(emu.Forker)
	for _, c := range g.cus {
		if ok {
			c.eng = fk.Fork(c.run, nil)
		} else {
			c.eng = eng
		}
	}
}

// RunDispatch executes one dispatch to completion on the timed model and
// returns the cycles it took.
//
// Each cycle is two phases. Phase 1 ticks every CU in index order — fetch
// scheduling, issue, functional execution — touching only that CU's
// private state and routing deferred shared-cache accesses into per-bank
// buckets of its request buffer. Phase 2 drains the buckets as bank waves
// (L1 level, then L2 banks, then DRAM channels — see mem.Drain): each bank
// replays its requests in (CU index, append order). Then the per-CU skip
// bounds are reduced; fill completions lower them, so this comes after the
// drain.
func (g *GPU) RunDispatch(eng emu.Engine, d *hsa.Dispatch) (int64, error) {
	watched := g.WD.enabled()
	if watched {
		if err := g.WD.check(g.now, g.wdInsts()); err != nil {
			return 0, err
		}
	}
	start := g.now
	g.now += g.P.LaunchOverhead

	g.prepareEngines(eng)

	// Occupancy: waves per CU limited by WF slots and register files.
	vregs, sregs := eng.RegDemand()
	wavesByVRF := g.P.WFSlots
	if vregs > 0 {
		wavesByVRF = g.P.VRFRegsPerCU / vregs
	}
	wavesBySRF := g.P.WFSlots
	if sregs > 0 {
		wavesBySRF = g.P.SRFRegsPerCU / sregs
	}
	maxWaves := min3(g.P.WFSlots, wavesByVRF, wavesBySRF)
	if maxWaves < 1 {
		maxWaves = 1
	}

	pending := make([]*emu.WGState, 0, len(d.Workgroups))
	for i := range d.Workgroups {
		pending = append(pending, emu.NewWGState(d, &d.Workgroups[i], eng.LDSBytes()))
	}
	next := 0
	active := 0

	dispatchMore := func() {
		for next < len(pending) {
			wg := pending[next]
			placed := false
			for _, c := range g.cus {
				if c.canPlace(wg, maxWaves) {
					c.place(wg, c.eng)
					next++
					active++
					placed = true
					break
				}
			}
			if !placed {
				break
			}
		}
	}
	dispatchMore()
	if active == 0 && next < len(pending) {
		return 0, fmt.Errorf("timing: workgroup does not fit on any CU")
	}

	for active > 0 {
		idle := true
		nextEvent := noEvent
		stallers := int64(0)
		// Phase 1: tick CUs against private state; the lowest-index CU's
		// error wins.
		for _, c := range g.cus {
			finished, err := c.tick(g.now)
			if err != nil {
				return 0, err
			}
			active -= finished
			if c.active {
				idle = false
			}
			stallers += int64(c.stallers)
		}
		// Phase 2: replay the deferred cache accesses bank by bank.
		g.drainFlush(g.now)
		for _, c := range g.cus {
			if c.nextEvent < nextEvent {
				nextEvent = c.nextEvent
			}
		}
		g.now++
		if active > 0 && next < len(pending) {
			dispatchMore()
		}
		if g.Run != nil {
			g.Run.Cycles++
		}
		if watched {
			if g.wdTick++; g.wdTick >= g.WD.every() {
				g.wdTick = 0
				if err := g.WD.check(g.now, g.wdInsts()); err != nil {
					return 0, err
				}
			}
		}

		// Deterministic cycle skipping: if this tick changed nothing, no
		// CU can act before nextEvent, so every cycle in between would be
		// an identical no-op tick. Advance now straight there, charging
		// in bulk exactly what those ticks would have charged — Cycles,
		// and one FetchStallCycles per stalled wave per cycle. Skips are
		// capped at the watchdog's next check boundary so budget and
		// cancellation polls fire at the same cycles a ticked run polls.
		if idle && !g.NoSkip && active > 0 && nextEvent != noEvent && nextEvent > g.now {
			skip := nextEvent - g.now
			if watched {
				if room := g.WD.every() - g.wdTick; skip > room {
					skip = room
				}
			}
			g.now += skip
			if g.Run != nil {
				g.Run.Cycles += uint64(skip)
				g.Run.FetchStallCycles += uint64(stallers) * uint64(skip)
			}
			if watched {
				if g.wdTick += skip; g.wdTick >= g.WD.every() {
					g.wdTick = 0
					if err := g.WD.check(g.now, g.wdInsts()); err != nil {
						return 0, err
					}
				}
			}
		}
	}
	return g.now - start, nil
}

// HarvestCacheStats copies hierarchy counters into the run record.
func (g *GPU) HarvestCacheStats() {
	if g.Run == nil {
		return
	}
	for _, c := range g.cus {
		st := c.l1d.Stats()
		g.Run.L1DAccesses += st.Accesses
		g.Run.L1DMisses += st.Misses
	}
	for _, ic := range g.iCaches {
		st := ic.Stats()
		g.Run.L1IAccesses += st.Accesses
		g.Run.L1IMisses += st.Misses
	}
	for _, sc := range g.sCaches {
		st := sc.Stats()
		g.Run.ScalarL1Accesses += st.Accesses
		g.Run.ScalarL1Misses += st.Misses
	}
	l2 := g.l2.Stats()
	g.Run.L2Accesses = l2.Accesses
	g.Run.L2Misses = l2.Misses
}

// Finalize folds per-CU state back into the shared run record: hierarchy
// counters (HarvestCacheStats) and the per-CU stat shards, which are zeroed
// after merging. Call it once, after the last dispatch.
func (g *GPU) Finalize() {
	g.HarvestCacheStats()
	if g.Run == nil {
		return
	}
	for _, c := range g.cus {
		g.Run.Merge(c.run)
		*c.run = stats.Run{}
	}
}

// Stop does nothing: the GPU starts no goroutines.
//
// Deprecated: kept only because the ilbench module still calls it.
func (g *GPU) Stop() {}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
