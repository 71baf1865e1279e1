package mem

import (
	"fmt"
	"math/bits"
)

// Executor runs n independent tasks, indexed 0..n-1, and returns when all
// have finished; nil means run serially in index order. Tasks within one
// wave touch disjoint state, so any execution order (or interleaving)
// produces identical results. The timing core always passes nil;
// TestDrainExecutorInvariance drives the other orders.
type Executor func(n int, run func(int))

func serialExec(n int, run func(int)) {
	for i := 0; i < n; i++ {
		run(i)
	}
}

// downJob is one access descending into a lower level: enqueued by an upper
// bank's wave into the lower bank's input bucket instead of calling through,
// which is what turns the drain into a pipeline of bank waves. done is
// written by the level that services the job.
type downJob struct {
	addr  uint64
	write bool
	at    int64
	done  int64
}

// pendFill is an upper bank's bookkeeping for one miss it sent below:
// where the fill's completion lands (sink), which down bucket holds the
// fill's job (bank/idx — indices, not pointers, because the bucket may
// still grow while this level's wave runs), the request's arrival cycle
// (for latency accounting) and a dirty victim to write back once the fill
// completes.
type pendFill struct {
	sink       *int64
	bank       int32
	idx        int32
	at         int64
	victimAddr uint64
	victimWB   bool
}

// drainTask is one bank of one level: the unit of phase-2 parallelism.
// Exactly one worker runs a task per wave, so everything here is private to
// that worker for the wave's duration. A task is dirty in a flush when it
// has input; only dirty tasks run, finalize and reset.
type drainTask struct {
	cache *Cache // nil for DRAM-channel tasks
	bank  int
	lower Banked
	// srcs are this flush's level-1 inputs: the non-empty request-buffer
	// buckets for (cache, bank), in buffer registration order (CU order).
	srcs []*[]lineReq
	// jobs are this flush's lower-level inputs: the non-empty down buckets
	// upper tasks filled for this bank, in upper-task order.
	jobs []*[]downJob
	// down holds this task's per-lower-bank output buckets; touched lists
	// the lower banks whose bucket is non-empty, in first-deposit order.
	down    [][]downJob
	touched []int32
	pend    []pendFill
}

// reset empties the task's inputs and outputs after a flush, visiting only
// the down buckets it filled.
func (t *drainTask) reset() {
	for _, lb := range t.touched {
		t.down[lb] = t.down[lb][:0]
	}
	t.touched = t.touched[:0]
	t.pend = t.pend[:0]
	t.srcs = t.srcs[:0]
	t.jobs = t.jobs[:0]
}

// taskSet is an ordered set of task indices, one bit per task.
type taskSet []uint64

func newTaskSet(n int) taskSet { return make(taskSet, (n+63)/64) }

func (s taskSet) add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// drainTo appends the members to dst in ascending order and empties the
// set.
func (s taskSet) drainTo(dst []int32) []int32 {
	for w, word := range s {
		for word != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
		s[w] = 0
	}
	return dst
}

// DrainSource is one request producer (a CU): its routed buffer and the
// callback that receives each request's (tag, ready) completion.
type DrainSource struct {
	Buf      *RequestBuffer
	Complete func(tag int, ready int64)
}

// Drain replays deferred cache accesses through a banked two-level
// hierarchy as a pipeline of bank waves:
//
//	wave 1 — every level-1 (per-CU L1D, shared L1I/sL1) bank replays its
//	         bucketed requests in (source, append) order against private
//	         bank state, depositing misses and posted writes into
//	         per-L2-bank output buckets;
//	wave 2 — every L2 bank replays its deposited jobs in (level-1 task,
//	         append) order, depositing misses into per-DRAM-channel
//	         buckets;
//	wave 3 — every DRAM channel replays its jobs.
//
// A barrier separates the waves; within a wave, tasks touch disjoint bank
// state and write completions only into their own inputs, so the waves may
// run on any number of workers with byte-identical results. After the
// waves, two serial finalize passes (L2 first, then level 1) resolve miss
// completions upward, charge miss latency, and apply dirty-victim
// write-backs; a final serial reduction folds per-line completions into
// per-request ready cycles and invokes each source's completion callback in
// (source, request) order. A steady-state Flush allocates nothing once the
// buckets have grown to their working size.
//
// A flush's cost follows its traffic: request buffers record the buckets
// they routed lines into and upper tasks record the lower banks they
// deposited into, so each wave, finalize pass and reset visits only the
// dirty tasks, in ascending task order — the order the victim write-backs
// and every bank's replay sequence depend on.
type Drain struct {
	l2   *Cache
	dram *DRAM
	l1T  []drainTask
	l2T  []drainTask
	drT  []drainTask
	srcs []DrainSource
	// srcBase[s][d] is the l1T index of bank 0 of source s's destination
	// d; bank b's task follows at srcBase[s][d]+b.
	srcBase [][]int32
	// Per-level dirty sets, and the same tasks listed in ascending order
	// for the current flush.
	l1Set, l2Set, drSet    taskSet
	l1List, l2List, drList []int32
	now                    int64
	runL1                  func(int)
	runL2                  func(int)
	runDR                  func(int)
}

// NewDrain wires the pipeline. l1s lists every level-1 cache in replay
// order (this order, with source order within a bank, defines the
// deterministic L2 replay order); srcs lists the request producers in
// completion order (CU index order). Every l1 must sit directly above l2,
// and l2 directly above dram; every destination registered in a source
// buffer must appear in l1s. Buffers must have all destinations registered
// before NewDrain (the drain captures bucket pointers).
func NewDrain(l1s []*Cache, srcs []DrainSource, l2 *Cache, dram *DRAM) *Drain {
	if l2.lower != Level(dram) {
		panic("mem: NewDrain: l2 is not directly above dram")
	}
	d := &Drain{l2: l2, dram: dram, srcs: srcs}
	base := make(map[*Cache]int32, len(l1s))
	for _, c := range l1s {
		if c.lower != Level(l2) {
			panic(fmt.Sprintf("mem: NewDrain: %s is not directly above %s", c.Name, l2.Name))
		}
		base[c] = int32(len(d.l1T))
		for bank := 0; bank < c.NumBanks(); bank++ {
			d.l1T = append(d.l1T, drainTask{cache: c, bank: bank, lower: l2,
				down: make([][]downJob, l2.NumBanks())})
		}
	}
	for _, s := range srcs {
		sb := make([]int32, len(s.Buf.dests))
		for di := range s.Buf.dests {
			b, ok := base[s.Buf.dests[di].cache]
			if !ok {
				panic(fmt.Sprintf("mem: NewDrain: destination %s not in level-1 list",
					s.Buf.dests[di].cache.Name))
			}
			sb[di] = b
		}
		d.srcBase = append(d.srcBase, sb)
	}
	for bank := 0; bank < l2.NumBanks(); bank++ {
		d.l2T = append(d.l2T, drainTask{cache: l2, bank: bank, lower: dram,
			down: make([][]downJob, dram.NumBanks())})
	}
	for ch := 0; ch < dram.NumBanks(); ch++ {
		d.drT = append(d.drT, drainTask{bank: ch})
	}
	d.l1Set = newTaskSet(len(d.l1T))
	d.l2Set = newTaskSet(len(d.l2T))
	d.drSet = newTaskSet(len(d.drT))
	d.runL1 = func(i int) { d.procCache(&d.l1T[d.l1List[i]]) }
	d.runL2 = func(i int) { d.procCache(&d.l2T[d.l2List[i]]) }
	d.runDR = d.procDRAM
	return d
}

// procCache replays one cache bank's inputs: level-1 buckets first (only
// level-1 tasks have any), then lower-level job buckets, both in wiring
// order. Misses and posted writes are deposited into the lower bank's
// bucket; completions that are already known land immediately.
func (d *Drain) procCache(t *drainTask) {
	c := t.cache
	b := &c.banks[t.bank]
	for _, sp := range t.srcs {
		src := *sp
		for j := range src {
			lr := &src[j]
			d.apply(t, c, b, lr.line, lr.write, d.now, &lr.done)
		}
	}
	for _, jp := range t.jobs {
		js := *jp
		for j := range js {
			jb := &js[j]
			d.apply(t, c, b, jb.addr, jb.write, jb.at, &jb.done)
		}
	}
}

func (d *Drain) apply(t *drainTask, c *Cache, b *cacheBank, addr uint64, write bool, at int64, sink *int64) {
	a := c.bankAccess(b, addr, write, at)
	if a.fill {
		lb := t.deposit(downJob{addr: a.downAddr, at: a.downAt})
		t.pend = append(t.pend, pendFill{sink: sink,
			bank: int32(lb), idx: int32(len(t.down[lb]) - 1), at: at,
			victimAddr: a.victimAddr, victimWB: a.victimWB})
		return
	}
	*sink = a.done
	if a.post {
		t.deposit(downJob{addr: a.downAddr, write: true, at: a.downAt, done: a.downAt})
	}
}

// deposit appends j to the down bucket of the lower bank servicing it,
// marking that bank touched on its first job, and returns the bank.
func (t *drainTask) deposit(j downJob) int {
	lb := t.lower.BankOf(j.addr)
	if len(t.down[lb]) == 0 {
		t.touched = append(t.touched, int32(lb))
	}
	t.down[lb] = append(t.down[lb], j)
	return lb
}

func (d *Drain) procDRAM(i int) {
	t := &d.drT[d.drList[i]]
	for _, jp := range t.jobs {
		js := *jp
		for j := range js {
			jb := &js[j]
			jb.done = d.dram.bankAccess(t.bank, jb.write, jb.at)
		}
	}
}

// routeDown hands the lower level its inputs: every dirty upper task (in
// ascending order, so each lower task's jobs stay in upper-task order)
// contributes the down buckets it touched. It returns the dirty lower tasks
// in ascending order.
func routeDown(upper []drainTask, dirty []int32, lower []drainTask, set taskSet, list []int32) []int32 {
	for _, ui := range dirty {
		t := &upper[ui]
		for _, lb := range t.touched {
			lower[lb].jobs = append(lower[lb].jobs, &t.down[lb])
			set.add(int(lb))
		}
	}
	return set.drainTo(list[:0])
}

// wave runs the tasks run(0..n-1) on exec, skipping empty waves.
func wave(exec Executor, n int, run func(int)) {
	if n > 0 {
		exec(n, run)
	}
}

// finalizeLevel resolves one level's pending fills after the lower waves
// ran: copy each fill's completion into its sink, charge the miss latency
// to the bank shard, and apply dirty-victim write-backs (posted at the
// fill's completion, replayed here serially in task/pend order). It visits
// only the level's dirty tasks, ascending, and resets each one.
func (d *Drain) finalizeLevel(tasks []drainTask, dirty []int32) {
	for _, i := range dirty {
		t := &tasks[i]
		b := &t.cache.banks[t.bank]
		for _, p := range t.pend {
			done := t.down[p.bank][p.idx].done
			b.stats.LatencySum += uint64(done - p.at)
			*p.sink = done
			if p.victimWB {
				t.cache.lower.Access(p.victimAddr, true, done)
			}
		}
		t.reset()
	}
}

// reduce folds per-line completions back into per-request ready cycles and
// invokes each source's completion callback in (source, request) order,
// then resets the buffers. Only dirty buckets hold lines.
func (d *Drain) reduce() {
	for _, s := range d.srcs {
		buf := s.Buf
		if len(buf.reqs) == 0 {
			continue
		}
		for i := range buf.reqs {
			buf.reqs[i].ready = d.now
		}
		for _, r := range buf.dirty {
			bucket := *buf.bucket(r)
			for j := range bucket {
				lr := &bucket[j]
				if rq := &buf.reqs[lr.req]; lr.done > rq.ready {
					rq.ready = lr.done
				}
			}
		}
		for i := range buf.reqs {
			s.Complete(buf.reqs[i].tag, buf.reqs[i].ready)
		}
		buf.Reset()
	}
}

// Flush drains every pending request at cycle now: three bank waves
// (level 1, L2, DRAM) on exec, then the serial finalize and reduction
// passes. exec == nil runs the waves serially; results are byte-identical
// either way. Each step visits only the tasks this flush's traffic reached.
//
// Deprecated: exec is read only by the ilbench module's drain replay and
// TestDrainExecutorInvariance; the timing core passes nil.
func (d *Drain) Flush(now int64, exec Executor) {
	nreq := 0
	for _, s := range d.srcs {
		nreq += len(s.Buf.reqs)
	}
	if nreq == 0 {
		return
	}
	d.now = now
	if exec == nil {
		exec = serialExec
	}
	// Hand each dirty bucket to its level-1 task, sources ascending, so a
	// task's inputs stay in source order.
	for si, s := range d.srcs {
		base := d.srcBase[si]
		for _, r := range s.Buf.dirty {
			ti := int(base[r.dest] + r.bank)
			d.l1T[ti].srcs = append(d.l1T[ti].srcs, s.Buf.bucket(r))
			d.l1Set.add(ti)
		}
	}
	d.l1List = d.l1Set.drainTo(d.l1List[:0])
	wave(exec, len(d.l1List), d.runL1)
	d.l2List = routeDown(d.l1T, d.l1List, d.l2T, d.l2Set, d.l2List)
	wave(exec, len(d.l2List), d.runL2)
	d.drList = routeDown(d.l2T, d.l2List, d.drT, d.drSet, d.drList)
	wave(exec, len(d.drList), d.runDR)
	d.finalizeLevel(d.l2T, d.l2List)
	d.finalizeLevel(d.l1T, d.l1List)
	for _, i := range d.drList {
		d.drT[i].jobs = d.drT[i].jobs[:0]
	}
	d.reduce()
}
