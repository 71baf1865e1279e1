package main

import (
	"fmt"
	"runtime"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/finalizer"
	"ilsim/internal/gcn3"
	"ilsim/internal/hsail"
	"ilsim/internal/hwmodel"
	"ilsim/internal/kernel"
	"ilsim/internal/report"
	"ilsim/internal/stats"
	"ilsim/internal/timing"
	"ilsim/internal/workloads"
)

// spans accumulates host time per layer. Every span wraps a call into one
// exported function of the named module, made from the benchmark's own
// code, so the program itself carries no instrumentation.
type spans map[string]time.Duration

// time runs fn, adding its duration to the named span; on a nil spans it
// only runs fn.
func (s spans) time(name string, fn func() error) error {
	if s == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	s[name] += time.Since(start)
	return err
}

// tracedRun is the separate traced pass. It runs, in order:
//
//  1. one pass exactly as the timed runs make it;
//  2. the same pass with spans at the module boundaries it reaches, plus,
//     for engine workloads, each job once more through Simulator.Run with
//     the options the engine resolves (the engine hides setup, run and
//     check from its caller);
//  3. a functional-only run of every job, with and without tracking;
//  4. a serial recording run of every job on the Table 4 machine, whose
//     fingerprint must equal the product path's, and a replay of its
//     data traffic through a standalone hierarchy.
//
// The wall-time difference between 1 and 2 is the tracing overhead.
func tracedRun(w *benchWorkload, scale int, want fingerprintSet) (*result, error) {
	r := &result{Samples: map[string][]float64{}}
	jobs := w.Jobs(scale)
	fail := func(why string) {
		r.Failed++
		r.Why = append(r.Why, why)
	}
	check := func(runs []*stats.Run, errs []error) {
		r.Attempted += len(jobs)
		failed, why := verify(w, scale, jobs, runs, errs, want)
		r.Failed += failed
		r.Why = append(r.Why, why...)
	}

	// 1. Untraced pass.
	start := time.Now()
	p := runPass(w, scale, nil)
	untraced := time.Since(start)
	check(p.Runs, p.Errs)

	// 2. Traced pass.
	sp := spans{}
	start = time.Now()
	p = runPass(w, scale, sp)
	traced := time.Since(start)
	check(p.Runs, p.Errs)
	prod := p.Runs

	// The remaining steps share one instance per (workload, scale); a
	// direct pass already timed its preparation.
	prepSpans := sp
	if !w.Engine {
		prepSpans = nil
	}
	insts := map[instKey]*workloads.Instance{}
	for _, k := range instanceKeys(jobs) {
		err := prepSpans.time("workloads.prepare_s", func() (err error) {
			insts[k], err = prepare(k.name, k.scale)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	kernels, err := traceToolchain(sp, insts)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if w.Engine {
		prod = make([]*stats.Run, len(jobs))
		errs := make([]error, len(jobs))
		for i, j := range jobs {
			opts := j.Opts
			opts.CUParallelism = core.ResolveCUParallelism(0, j.Config.NumCUs, workers)
			opts.MemParallelism = core.ResolveMemParallelism(0, j.Config.DrainWidth(), workers)
			prod[i], errs[i] = simulate(insts[instKey{j.Workload, j.Scale}], j, opts, sp)
		}
		check(prod, errs)
	}

	// 3. Functional-only runs, with the suite's tracking options and
	// without; emu.functional_s uses each job's own options.
	tracking := report.SuiteJobs(core.DefaultConfig(), 1, false)[0].Opts
	var funcInsts uint64
	for _, j := range jobs {
		inst := insts[instKey{j.Workload, j.Scale}]
		var tracked, plain time.Duration
		for _, track := range []bool{true, false} {
			d, n, err := functionalRun(inst, j, track, tracking)
			r.Attempted++
			if err != nil {
				fail(fmt.Sprintf("functional job %s (tracking %t): %v", j, track, err))
				continue
			}
			if track {
				tracked = d
			} else {
				plain = d
			}
			if track == (j.Opts.TrackValues || j.Opts.TrackReuse) {
				sp["emu.functional_s"] += d
				funcInsts += n
			}
		}
		sp["stats.tracking_s"] += tracked - plain
	}

	// 4. Serial recording runs and the drain replay. The recording drives
	// the Table 4 machine (timing.DefaultParams), so jobs on another
	// configuration — the suite's hw-oracle runs — are not recorded.
	var rs replayStats
	var l1dAcc, sl1Acc, l1iAcc uint64
	for i, j := range jobs {
		if j.Config != core.DefaultConfig() {
			continue
		}
		inst := insts[instKey{j.Workload, j.Scale}]
		r.Attempted++
		run, rec, err := recordRun(sp, inst, j)
		if err == nil && prod[i] != nil && runHash(run) != runHash(prod[i]) {
			err = fmt.Errorf("recording fingerprint %s differs from product path %s", runHash(run), runHash(prod[i]))
		}
		if err != nil {
			fail(fmt.Sprintf("recording job %s: %v", j, err))
			continue
		}
		st := replay(rec, timing.DefaultParams())
		rs.flush += st.flush
		rs.flushes += st.flushes
		rs.lines += st.lines
		l1dAcc += run.L1DAccesses
		sl1Acc += run.ScalarL1Accesses
		l1iAcc += run.L1IAccesses
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("replay coverage: mem.lines %d vs simulated L1D %d + sL1 %d = %d data accesses (%.1f%%); L1I fetch accesses %d are not replayed",
			rs.lines, l1dAcc, sl1Acc, l1dAcc+sl1Acc, pct(float64(rs.lines), float64(l1dAcc+sl1Acc)), l1iAcc),
		fmt.Sprintf("tracing overhead: traced pass %.3f s vs untraced pass %.3f s (%+.1f%%)",
			traced.Seconds(), untraced.Seconds(), pct(traced.Seconds()-untraced.Seconds(), untraced.Seconds())))

	// Derived metrics.
	var simInsts, cycles, launches, l1dMiss, l1dAll, l2Miss, l2All uint64
	for _, run := range prod {
		if run == nil {
			continue
		}
		simInsts += run.TotalInsts()
		cycles += run.Cycles
		launches += run.KernelLaunches
		l1dMiss, l1dAll = l1dMiss+run.L1DMisses, l1dAll+run.L1DAccesses
		l2Miss, l2All = l2Miss+run.L2Misses, l2All+run.L2Accesses
	}
	for _, name := range []string{
		"workloads.prepare_s", "hsail.brig_s", "kernel.cfg_s", "finalizer.finalize_s", "gcn3.codeobj_s",
		"workloads.check_s", "core.setup_s", "hsa.dispatch_s", "emu.functional_s", "emu.execute_s",
		"timing.run_s", "stats.tracking_s", "stats.finalize_s", "report.render_s",
	} {
		r.add(name, sp[name].Seconds())
	}
	r.add("workloads.kernels", float64(kernels))
	r.add("hsa.launches", float64(launches))
	r.add("emu.insts", float64(simInsts))
	r.add("emu.ns_per_inst", ratio(float64(sp["emu.functional_s"].Nanoseconds()), float64(funcInsts)))
	r.add("timing.self_s", (sp["timing.dispatch_s"] - sp["emu.execute_s"]).Seconds())
	r.add("timing.model_overhead", ratio(sp["timing.run_s"].Seconds(), sp["emu.functional_s"].Seconds()))
	r.add("timing.cpu_per_wall", ratio(sp["run.cpu"].Seconds(), sp["run.wall"].Seconds()))
	r.add("timing.sim_cycles", float64(cycles))
	r.add("mem.flush_s", rs.flush.Seconds())
	r.add("mem.flushes", float64(rs.flushes))
	r.add("mem.lines", float64(rs.lines))
	r.add("mem.lines_per_flush", ratio(float64(rs.lines), float64(rs.flushes)))
	r.add("mem.ns_per_flush", ratio(float64(rs.flush.Nanoseconds()), float64(rs.flushes)))
	r.add("mem.ns_per_line", ratio(float64(rs.flush.Nanoseconds()), float64(rs.lines)))
	r.add("mem.l1d_miss_rate", ratio(float64(l1dMiss), float64(l1dAll)))
	r.add("mem.l2_miss_rate", ratio(float64(l2Miss), float64(l2All)))
	em := p.Metrics
	r.add("exp.job_wall_s", em.JobWall.Seconds())
	r.add("exp.concurrency", ratio(em.JobWall.Seconds(), em.Elapsed.Seconds()))
	tail := 0.0
	if w.Engine {
		// The engine starts no more workers than it has jobs.
		tail = (em.Elapsed - em.JobWall/time.Duration(min(workers, len(jobs)))).Seconds()
	}
	r.add("exp.tail_idle_s", tail)
	model := modelMetrics(jobs, prod)
	for _, name := range []string{"model.ipc", "model.gcn3_over_hsail_insts", "model.gcn3_over_hsail_cycles",
		"model.hw_err_hsail_pct", "model.hw_err_gcn3_pct"} {
		r.add(name, model[name])
	}
	return r, nil
}

// traceToolchain re-runs the toolchain stages core.PrepareKernel chains —
// BRIG round-trip, CFG analysis, finalization, code-object round-trip — on
// every distinct prepared kernel, one span per stage. It returns the kernel
// count.
func traceToolchain(sp spans, insts map[instKey]*workloads.Instance) (int, error) {
	seen := map[*core.KernelSource]bool{}
	for _, inst := range insts {
		for _, ks := range inst.Kernels {
			if seen[ks] {
				continue
			}
			seen[ks] = true
			var dec *hsail.Kernel
			var cfg *kernel.CFG
			var co *gcn3.CodeObject
			err := sp.time("hsail.brig_s", func() error {
				b, err := hsail.EncodeBRIG(ks.HSAIL)
				if err == nil {
					dec, err = hsail.DecodeBRIG(b)
				}
				return err
			})
			if err == nil {
				err = sp.time("kernel.cfg_s", func() (err error) { cfg, err = kernel.AnalyzeCFG(dec); return })
			}
			if err == nil {
				err = sp.time("finalizer.finalize_s", func() (err error) {
					co, err = finalizer.FinalizeWithCFG(dec, cfg, finalizer.Options{})
					return
				})
			}
			if err == nil {
				err = sp.time("gcn3.codeobj_s", func() error {
					b, err := co.Encode()
					if err == nil {
						_, err = gcn3.DecodeCodeObject(b)
					}
					return err
				})
			}
			if err != nil {
				return 0, fmt.Errorf("kernel %s: %w", ks.HSAIL.Name, err)
			}
		}
	}
	return len(seen), nil
}

// functionalRun executes one job on a fresh machine with the reference
// functional executor only, then checks its output. It returns the time
// inside Machine.RunFunctional and the instructions it executed.
func functionalRun(inst *workloads.Instance, j exp.Job, track bool, tracking core.RunOptions) (time.Duration, uint64, error) {
	run := &stats.Run{Workload: j.Workload}
	m := core.NewMachine(j.Abs, run)
	if track {
		m.Col.TrackValues = tracking.TrackValues
		m.Col.ValueSampleEvery = tracking.ValueSampleEvery
		m.Col.TrackReuse = tracking.TrackReuse
	}
	if err := inst.Setup(m); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := m.RunFunctional(); err != nil {
		return 0, 0, err
	}
	d := time.Since(start)
	if err := inst.Check(m); err != nil {
		return 0, 0, fmt.Errorf("output check: %w", err)
	}
	return d, run.TotalInsts(), nil
}

// recordRun replays core.Simulator.Run by hand on the Table 4 machine with
// serial ticking and draining: it drives NextDispatch, GPU.RunDispatch and
// CompleteDispatch itself through a recording engine wrapper, with a span
// around each call.
func recordRun(sp spans, inst *workloads.Instance, j exp.Job) (*stats.Run, *recorder, error) {
	run := &stats.Run{Workload: j.Workload, Abstraction: j.Abs.String()}
	m := core.NewMachine(j.Abs, run)
	m.Col.TrackValues = j.Opts.TrackValues
	m.Col.ValueSampleEvery = j.Opts.ValueSampleEvery
	m.Col.TrackReuse = j.Opts.TrackReuse
	if err := inst.Setup(m); err != nil {
		return nil, nil, err
	}
	p := timing.DefaultParams()
	gpu := timing.NewGPU(p, run)
	gpu.Mem = m.Ctx.Mem
	gpu.Parallelism, gpu.MemParallelism = 1, 1
	defer gpu.Stop()
	rec := &recorder{gpu: gpu, numCUs: p.NumCUs}
	for {
		start := time.Now()
		d, eng, err := m.NextDispatch()
		sp["hsa.dispatch_s"] += time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		if d == nil {
			break
		}
		wrapped, err := rec.wrap(eng)
		if err != nil {
			return nil, nil, err
		}
		start = time.Now()
		cycles, err := gpu.RunDispatch(wrapped, d)
		sp["timing.dispatch_s"] += time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		run.KernelCycles = append(run.KernelCycles, uint64(cycles))
		start = time.Now()
		m.CompleteDispatch(d)
		sp["hsa.dispatch_s"] += time.Since(start)
	}
	sp.time("stats.finalize_s", func() error { gpu.Finalize(); return nil })
	sp["emu.execute_s"] += rec.exec
	run.DataFootprintBytes = m.Ctx.Mem.FootprintBytes()
	if err := inst.Check(m); err != nil {
		return nil, nil, fmt.Errorf("output check: %w", err)
	}
	return run, rec, nil
}

// modelMetrics computes the simulated-time metrics from the product-path
// runs: IPC over the non-oracle runs, GCN3/HSAIL geomean ratios over the
// workloads run under both abstractions, and the Table 7 mean per-launch
// error of each abstraction against the hw-oracle's perturbed runtimes.
func modelMetrics(jobs []exp.Job, runs []*stats.Run) map[string]float64 {
	type pair struct{ hsail, gcn3, oracle *stats.Run }
	pairs := map[string]*pair{}
	var order []string
	var insts, cycles uint64
	for i, j := range jobs {
		run := runs[i]
		if run == nil {
			continue
		}
		p := pairs[j.Workload]
		if p == nil {
			p = &pair{}
			pairs[j.Workload] = p
			order = append(order, j.Workload)
		}
		switch {
		case j.Label == "hw-oracle":
			p.oracle = run
			continue
		case j.Abs == core.AbsHSAIL:
			p.hsail = run
		default:
			p.gcn3 = run
		}
		insts += run.TotalInsts()
		cycles += run.Cycles
	}
	out := map[string]float64{"model.ipc": ratio(float64(insts), float64(cycles))}
	var ri, rc, he, ge []float64
	for _, name := range order {
		p := pairs[name]
		if p.hsail == nil || p.gcn3 == nil {
			continue
		}
		ri = append(ri, ratio(float64(p.gcn3.TotalInsts()), float64(p.hsail.TotalInsts())))
		rc = append(rc, ratio(float64(p.gcn3.Cycles), float64(p.hsail.Cycles)))
		if p.oracle == nil {
			continue
		}
		hw := hwmodel.PerturbedRuntimes(name, p.oracle.KernelCycles)
		for k := 0; k < len(hw) && k < len(p.hsail.KernelCycles) && k < len(p.gcn3.KernelCycles); k++ {
			he = append(he, absf(float64(p.hsail.KernelCycles[k])-hw[k])/hw[k])
			ge = append(ge, absf(float64(p.gcn3.KernelCycles[k])-hw[k])/hw[k])
		}
	}
	if len(ri) > 0 {
		out["model.gcn3_over_hsail_insts"] = stats.Geomean(ri)
		out["model.gcn3_over_hsail_cycles"] = stats.Geomean(rc)
	}
	out["model.hw_err_hsail_pct"] = 100 * mean(he)
	out["model.hw_err_gcn3_pct"] = 100 * mean(ge)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
