package timing

import (
	"math"

	"ilsim/internal/emu"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
	"ilsim/internal/stats"
)

// noEvent marks "no future cycle at which this CU's state can change on its
// own"; the GPU loop never skips toward it.
const noEvent = int64(math.MaxInt64)

// waveCtx is a wavefront's timing state in a CU wavefront slot.
type waveCtx struct {
	w    *emu.Wave
	eng  emu.Engine
	wg   *wgRun
	seq  int64 // dispatch age for oldest-job-first scheduling
	simd int
	// regBase is the wave's physical base register in the CU's VRF:
	// architectural slot s of this wave lives in bank (regBase+s)%banks.
	regBase int

	// Instruction buffer: bytes buffered ahead of the wave's PC.
	ibBytes      int
	fetchBusy    bool
	fetchDone    int64
	fetchBytes   int
	fetchEpoch   int // increments on flush; cancels in-flight fetches
	fetchInEpoch int

	// Next instruction's scheduling metadata (points into the engine's
	// per-PC decode cache; nil until peeked, reset on issue).
	info *emu.InstInfo

	// HSAIL hardware scoreboard: per-register-slot result-ready cycle.
	vregReady []int64

	// GCN3 software dependency state: completion cycles of outstanding
	// memory operations (vmcnt is in-order, lgkmcnt may be unordered).
	vmemDone []int64
	lgkmDone []int64

	nextIssue int64
	barrier   bool
	done      bool
}

// outstanding returns how many completion cycles are still in the future,
// compacting the slice.
func outstanding(list *[]int64, now int64) int {
	l := *list
	keep := l[:0]
	for _, c := range l {
		if c > now {
			keep = append(keep, c)
		}
	}
	*list = keep
	return len(keep)
}

// kthSmallest returns the k-th smallest element (1-indexed) of a small
// unsorted list. Lists here are a wave's outstanding memory completions, so
// the quadratic scan is cheaper than sorting and never allocates.
func kthSmallest(list []int64, k int) int64 {
	best := noEvent
	for _, v := range list {
		rank := 0
		for _, u := range list {
			if u <= v {
				rank++
			}
		}
		if rank >= k && v < best {
			best = v
		}
	}
	return best
}

// wgRun tracks one workgroup resident on a CU.
type wgRun struct {
	wg        *emu.WGState
	waves     []*waveCtx
	remaining int
}

// pendReq is the CU-side metadata of one deferred cache access (the line
// set itself lives in the request buffer): which wave to complete and, for
// data accesses, the instruction whose dependency state the completion
// feeds. A nil info marks an instruction-fetch fill.
type pendReq struct {
	wv   *waveCtx
	info *emu.InstInfo
}

// cu is one compute unit.
//
// Each cycle is split into two phases:
//
//	phase 1 (tick)  — fetch scheduling, issue, execute and every
//	                  CU-private state transition, touching only this
//	                  CU's waves, its stat shard (run) and its engine
//	                  clone (eng). Accesses to the shared cache
//	                  hierarchy are routed into reqs' per-bank buckets
//	                  instead of applied.
//	phase 2 (drain) — the GPU's drain replays every bank's bucketed
//	                  requests in (CU index, append order) as level
//	                  waves (mem.Drain), once every CU has ticked.
type cu struct {
	g  *GPU
	id int

	l1d *mem.Cache
	l1i *mem.Cache
	sl1 *mem.Cache
	// Destination handles of the three caches in reqs (mem routing).
	l1dDest int
	l1iDest int
	sl1Dest int

	// run is the CU's private statistics shard (merged into the GPU's
	// root run at Finalize); eng is the per-CU engine clone for the
	// current dispatch.
	run *stats.Run
	eng emu.Engine

	// reqs/pend hold the tick's deferred shared-cache accesses;
	// completeFn is the drain callback, bound once so draining does not
	// allocate.
	reqs       mem.RequestBuffer
	pend       []pendReq
	completeFn func(tag int, ready int64)

	// waves is kept permanently ordered by seq: place appends waves with
	// monotonically increasing seq and releaseWG compacts stably, so the
	// issue stage never needs to sort.
	waves     []*waveCtx
	usedSlots int
	seq       int64
	// vrfCursor assigns physical VRF regions to incoming waves.
	vrfCursor int

	simdBusy   []int64
	scalarBusy int64
	vmemBusy   int64
	ldsBusy    int64

	// bankFree models each VRF bank as a single-ported resource: the
	// cycle at which the bank can accept its next operand access. The
	// operand collector queues accesses, so contention accumulates across
	// cycles rather than resetting every cycle.
	bankFree []int64

	// order is the issue stage's reusable scheduling scratch: the waves
	// eligible at the start of the cycle, oldest first. Keeping it on the
	// CU makes the steady-state issue loop allocation-free.
	order []*waveCtx

	// Per-tick skip bookkeeping (see GPU.RunDispatch):
	//   active    — this tick changed simulation state (fetch started or
	//               completed, instruction issued, barrier released, ...).
	//   stallers  — waves that charged FetchStallCycles this tick and will
	//               charge it again every cycle until their next event.
	//   nextEvent — earliest future cycle at which this CU's state can
	//               change without outside input.
	active    bool
	stallers  int
	nextEvent int64
}

func newCU(g *GPU, id int) *cu {
	c := &cu{
		g: g, id: id,
		run:      &stats.Run{},
		simdBusy: make([]int64, g.P.SIMDsPerCU),
		bankFree: make([]int64, g.P.VRFBanks),
	}
	c.completeFn = c.complete
	return c
}

// wake lowers the CU's next-event bound to cycle at.
func (c *cu) wake(at int64) {
	if at < c.nextEvent {
		c.nextEvent = at
	}
}

// canPlace reports whether a workgroup fits (slot capacity and occupancy).
func (c *cu) canPlace(wg *emu.WGState, maxWaves int) bool {
	cap := maxWaves
	if c.g.P.WFSlots < cap {
		cap = c.g.P.WFSlots
	}
	return c.usedSlots+wg.Info.NumWaves <= cap
}

// place creates the workgroup's wavefronts in this CU.
func (c *cu) place(wg *emu.WGState, eng emu.Engine) {
	run := &wgRun{wg: wg, remaining: wg.Info.NumWaves}
	vregs, _ := eng.RegDemand()
	if vregs < 1 {
		vregs = 1
	}
	for i := 0; i < wg.Info.NumWaves; i++ {
		w := eng.NewWave(wg, i)
		ctx := &waveCtx{
			w: w, eng: eng, wg: run,
			seq:     c.seq,
			simd:    c.usedSlots % c.g.P.SIMDsPerCU,
			regBase: c.vrfCursor,
		}
		c.vrfCursor = (c.vrfCursor + vregs) % c.g.P.VRFRegsPerCU
		c.seq++
		if eng.Abstraction() == "HSAIL" {
			nSlots, _ := eng.RegDemand()
			ctx.vregReady = make([]int64, nSlots)
		}
		c.waves = append(c.waves, ctx)
		run.waves = append(run.waves, ctx)
		c.usedSlots++
	}
}

// tick advances the CU one cycle; it returns how many workgroups finished.
// Afterwards c.active, c.stallers and c.nextEvent describe the tick for the
// GPU's cycle-skipping logic.
func (c *cu) tick(now int64) (int, error) {
	c.active = false
	c.stallers = 0
	c.nextEvent = noEvent
	if len(c.waves) == 0 {
		return 0, nil
	}
	c.fetchStage(now)
	finished, err := c.issueStage(now)
	if err != nil {
		return 0, err
	}
	return finished, nil
}

// fetchStage completes and starts instruction-buffer fills.
func (c *cu) fetchStage(now int64) {
	for _, wv := range c.waves {
		if wv.fetchBusy && now >= wv.fetchDone {
			wv.fetchBusy = false
			if wv.fetchInEpoch == wv.fetchEpoch {
				wv.ibBytes += wv.fetchBytes
			}
			if !wv.done {
				c.active = true
			}
		}
	}
	started := 0
	for _, wv := range c.waves {
		if started >= c.g.P.FetchWidth {
			break
		}
		if wv.done || wv.fetchBusy || wv.ibBytes >= c.g.P.IBBytes {
			continue
		}
		addr := wv.w.PC + uint64(wv.ibBytes)
		line := addr &^ (mem.LineSize - 1)
		bytes := int(line + mem.LineSize - addr)
		// The shared (per-4-CU) I-cache lookup is deferred to the drain
		// phase; until then the fill's completion cycle is unknown, which
		// noEvent encodes (it cannot satisfy the completion check above,
		// and waking at it is a no-op).
		wv.fetchBusy = true
		wv.fetchDone = noEvent
		wv.fetchBytes = bytes
		wv.fetchInEpoch = wv.fetchEpoch
		c.pend = append(c.pend, pendReq{wv: wv})
		c.reqs.AppendLine(c.l1iDest, line, false, len(c.pend)-1)
		c.active = true
		started++
	}
	// Every in-flight fill is a future event (completion refills the IB, or
	// frees the fetch slot of a flushed wave). Fills deferred this tick
	// wake at their true completion cycle during drain.
	for _, wv := range c.waves {
		if wv.fetchBusy && !wv.done {
			c.wake(wv.fetchDone)
		}
	}
}

// complete is the drain callback: it lands one deferred access's
// completion cycle. Fetch fills (nil info) record the fill time and wake
// the CU exactly as the serial fetch stage did — unconditionally, because
// the requesting wave was live when the fill started, which is when the
// serial loop registered the wake. Data accesses feed the wave's
// dependency state.
func (c *cu) complete(tag int, ready int64) {
	p := &c.pend[tag]
	if p.info == nil {
		p.wv.fetchDone = ready
		c.wake(ready)
		return
	}
	c.finishMem(p.wv, p.info, ready)
}

// issueStage picks ready wavefronts oldest-first and issues at most one
// instruction per execution unit. Waves blocked this cycle report the cycle
// their blocking condition can next change via c.wake, which is what makes
// whole-GPU cycle skipping exact.
func (c *cu) issueStage(now int64) (int, error) {
	// c.waves is seq-ordered by construction; filtering into the reusable
	// scratch snapshots eligibility at the start of the cycle (a barrier
	// released mid-cycle must not issue until the next cycle).
	order := c.order[:0]
	for _, wv := range c.waves {
		if !wv.done && !wv.barrier {
			order = append(order, wv)
		}
	}
	c.order = order

	finished := 0
	run := c.run
	for _, wv := range order {
		if now < wv.nextIssue {
			c.wake(wv.nextIssue)
			continue
		}
		if wv.info == nil {
			info, err := wv.eng.Peek(wv.w)
			if err != nil {
				return finished, err
			}
			wv.info = info
		}
		info := wv.info
		if wv.ibBytes < info.SizeBytes {
			if run != nil {
				run.FetchStallCycles++
			}
			// The stall repeats every cycle until the in-flight fill
			// lands; RunDispatch bulk-charges it across skipped cycles.
			c.stallers++
			if !wv.fetchBusy {
				// No fill in flight (fetch-width starvation): retry next
				// cycle.
				c.wake(now + 1)
			}
			continue
		}
		// Dependency checks.
		if wv.vregReady != nil {
			if !c.scoreboardReady(wv, info, now) {
				c.wake(scoreboardReadyAt(wv, info))
				continue
			}
		} else {
			if info.WaitVM >= 0 && outstanding(&wv.vmemDone, now) > int(info.WaitVM) {
				// vmcnt completes in order (vmemDone is non-decreasing):
				// the counter reaches WaitVM exactly when the
				// (n-WaitVM)-th oldest operation lands.
				c.wake(wv.vmemDone[len(wv.vmemDone)-1-int(info.WaitVM)])
				continue
			}
			if info.WaitLGKM >= 0 && outstanding(&wv.lgkmDone, now) > int(info.WaitLGKM) {
				c.wake(kthSmallest(wv.lgkmDone, len(wv.lgkmDone)-int(info.WaitLGKM)))
				continue
			}
		}
		// Execution-unit availability.
		var busy *int64
		var occ int64
		switch info.Category {
		case isa.CatVALU:
			busy, occ = &c.simdBusy[wv.simd], c.g.P.SIMDIssueCycles
		case isa.CatVMem:
			busy, occ = &c.vmemBusy, c.g.P.VMemIssueCycles
		case isa.CatLDS:
			busy, occ = &c.ldsBusy, c.g.P.VMemIssueCycles
		default: // scalar ALU, scalar memory, branch, waitcnt, misc
			busy, occ = &c.scalarBusy, c.g.P.ScalarIssueCycles
		}
		if *busy > now {
			c.wake(*busy)
			continue
		}

		res, err := wv.eng.Execute(wv.w)
		if err != nil {
			return finished, err
		}
		c.active = true
		*busy = now + occ
		wv.nextIssue = now + 1
		wv.ibBytes -= info.SizeBytes
		wv.info = nil

		// VRF operand-collector traffic: each bank accepts one operand
		// access per cycle; accesses that find their bank booked queue
		// behind it and stall the issuing unit — the contention the
		// paper shows HSAIL triples (Fig 6). Backlog carries across
		// cycles, so sustained operand pressure compounds.
		conflicts := int64(0)
		bookBank := func(r uint16) {
			b := (wv.regBase + int(r)) % len(c.bankFree)
			if c.bankFree[b] > now {
				conflicts++
				c.bankFree[b]++
			} else {
				c.bankFree[b] = now + 1
			}
		}
		for _, r := range info.VRFReads.Slice() {
			bookBank(r)
		}
		for _, r := range info.VRFWrites.Slice() {
			bookBank(r)
		}
		if conflicts > 0 {
			*busy += conflicts
			if run != nil {
				run.VRFBankConflicts += uint64(conflicts)
			}
		}
		if run != nil {
			run.VRFAccesses += uint64(info.VRFReads.N) + uint64(info.VRFWrites.N)
		}

		c.retire(wv, info, &res, now)
		if res.IsEndPgm {
			wv.done = true
			wv.wg.remaining--
			if wv.wg.remaining == 0 {
				c.releaseWG(wv.wg)
				finished++
			}
		}
	}
	return finished, nil
}

// scoreboardReady implements the HSAIL hardware scoreboard: every register
// the instruction touches must have its pending write complete.
func (c *cu) scoreboardReady(wv *waveCtx, info *emu.InstInfo, now int64) bool {
	for _, r := range info.VRFReads.Slice() {
		if wv.vregReady[r] > now {
			return false
		}
	}
	for _, r := range info.VRFWrites.Slice() {
		if wv.vregReady[r] > now {
			return false
		}
	}
	return true
}

// scoreboardReadyAt returns the cycle at which every register the blocked
// instruction touches has its pending write complete. Pending writes only
// move on issue (an event), so between events this bound is exact.
func scoreboardReadyAt(wv *waveCtx, info *emu.InstInfo) int64 {
	var at int64
	for _, r := range info.VRFReads.Slice() {
		if wv.vregReady[r] > at {
			at = wv.vregReady[r]
		}
	}
	for _, r := range info.VRFWrites.Slice() {
		if wv.vregReady[r] > at {
			at = wv.vregReady[r]
		}
	}
	return at
}

// retire charges latencies for an issued instruction and updates dependency
// state, branch redirects and barriers. Global and scalar memory accesses go
// through the shared hierarchy, so their completion cycles are deferred to
// the drain phase; everything else completes with a CU-private latency and
// lands immediately. Both paths feed finishMem, and each wave issues at most
// one instruction per cycle, so the wave's dependency lists grow in the same
// order the serial loop grew them.
func (c *cu) retire(wv *waveCtx, info *emu.InstInfo, res *emu.ExecResult, now int64) {
	p := &c.g.P
	// Completion time of the instruction's result.
	switch {
	case res.MemKind == emu.MemGlobal && len(res.Lines) > 0:
		// res.Lines is the wave's coalescing scratch; Append routes and
		// copies the lines, so the scratch may be reused immediately.
		c.pend = append(c.pend, pendReq{wv: wv, info: info})
		c.reqs.Append(c.l1dDest, res.Lines, res.MemWrite, len(c.pend)-1)
	case res.MemKind == emu.MemScalar && len(res.Lines) > 0:
		c.pend = append(c.pend, pendReq{wv: wv, info: info})
		c.reqs.Append(c.sl1Dest, res.Lines, false, len(c.pend)-1)
	case res.MemKind == emu.MemGlobal || res.MemKind == emu.MemScalar:
		// Fully masked access: no lines, completes immediately.
		c.finishMem(wv, info, now)
	case res.MemKind == emu.MemLDS || info.Category == isa.CatLDS:
		if res.LDSBankConflicts > 0 {
			c.ldsBusy += int64(res.LDSBankConflicts)
		}
		c.finishMem(wv, info, now+p.LDSLatency+int64(res.LDSBankConflicts))
	default:
		var ready int64
		switch info.LatClass {
		case emu.LatALU:
			ready = now + p.ALULatency
		case emu.LatALU64:
			ready = now + p.ALU64Latency
		case emu.LatTrans:
			ready = now + p.TransLatency
		case emu.LatScalar:
			ready = now + p.ScalarLatency
		case emu.LatBranch:
			ready = now + p.BranchLatency
		default:
			ready = now + 1
		}
		c.finishMem(wv, info, ready)
	}

	if res.Redirected {
		run := c.run
		if run != nil {
			run.Redirects++
			if wv.ibBytes > 0 || wv.fetchBusy {
				run.IBFlushes++
			}
		}
		wv.ibBytes = 0
		wv.fetchEpoch++ // cancel any in-flight fill
		wv.nextIssue = now + p.BranchLatency
	}

	if res.IsBarrier {
		wv.barrier = true
		c.checkBarrier(wv.wg)
	}
}

// finishMem lands an instruction's completion cycle in the wave's dependency
// state. It runs inline from retire for CU-private latencies and from the
// drain callback for shared-hierarchy accesses.
func (c *cu) finishMem(wv *waveCtx, info *emu.InstInfo, ready int64) {
	if wv.vregReady != nil {
		// HSAIL scoreboard: destination registers become ready when the
		// instruction completes.
		for _, r := range info.VRFWrites.Slice() {
			wv.vregReady[r] = ready
		}
		return
	}
	// GCN3 waitcnt counters.
	if info.IsVMem {
		// In-order completion: never earlier than the previous one.
		if n := len(wv.vmemDone); n > 0 && wv.vmemDone[n-1] > ready {
			ready = wv.vmemDone[n-1]
		}
		wv.vmemDone = append(wv.vmemDone, ready)
	}
	if info.IsLGKM {
		wv.lgkmDone = append(wv.lgkmDone, ready)
	}
}

// checkBarrier releases a workgroup barrier once every unfinished wave has
// arrived.
func (c *cu) checkBarrier(run *wgRun) {
	for _, wv := range run.waves {
		if !wv.done && !wv.barrier {
			return
		}
	}
	for _, wv := range run.waves {
		wv.barrier = false
	}
}

// releaseWG frees the workgroup's slots. The compaction is stable, so
// c.waves stays seq-ordered.
func (c *cu) releaseWG(run *wgRun) {
	keep := c.waves[:0]
	for _, wv := range c.waves {
		if wv.wg != run {
			keep = append(keep, wv)
		}
	}
	c.waves = keep
	c.usedSlots -= len(run.waves)
}
