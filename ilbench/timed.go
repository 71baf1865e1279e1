package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"ilsim/internal/exp"
)

// Before each pass a run times the workload's preparation at least
// minSetupReps times and for at least minSetupTime, so the set-up samples
// span the same host periods as the passes (preparation is short, so one
// sample would be mostly noise); setup_s is the median of all of them.
const (
	minSetupReps = 3
	minSetupTime = 150 * time.Millisecond
)

// result is what one benchmark run reports.
type result struct {
	Attempted, Failed int
	Why               []string
	// Samples holds each metric's per-pass (or, for trace runs, single)
	// values; the reported value is the median.
	Samples map[string][]float64
	Notes   []string
}

func (r *result) add(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// timedRun measures the workload with tracing off: closed-loop passes, one
// at a time, for about dur, each after a round of set-up timed on its own.
// A pass starts only while it is expected to end within half a pass of the
// deadline, and there is always at least one.
func timedRun(w *benchWorkload, scale int, dur time.Duration, want fingerprintSet) (*result, error) {
	r := &result{Samples: map[string][]float64{}}
	jobs := w.Jobs(scale)
	clears := true
	start := time.Now()
	for {
		for reps, setupStart := 0, time.Now(); reps < minSetupReps || time.Since(setupStart) < minSetupTime; reps++ {
			t, err := timeSetup(jobs)
			if err != nil {
				return nil, err
			}
			r.add("setup_s", t.Seconds())
		}
		runtime.GC()
		debug.FreeOSMemory()
		clears = resetPeakRSS() && clears
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		t0 := time.Now()
		p := runPass(w, scale, nil)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		rss := peakRSSMB()

		failed, why := verify(w, scale, jobs, p.Runs, p.Errs, want)
		r.Attempted += len(jobs)
		r.Failed += failed
		r.Why = append(r.Why, why...)
		var insts uint64
		for _, run := range p.Runs {
			if run != nil {
				insts += run.TotalInsts()
			}
		}
		r.add("wall_s", wall.Seconds())
		r.add("siminsts_per_s", float64(insts)/wall.Seconds())
		r.add("cpu_s", cpu.Seconds())
		r.add("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		r.add("peak_rss_mb", rss)

		est := time.Since(start) / time.Duration(len(r.Samples["wall_s"]))
		if time.Since(start)+est/2 > dur {
			break
		}
	}
	if !clears {
		r.Notes = append(r.Notes, "peak_rss_mb: /proc/self/clear_refs not writable, peak covers the whole process")
	}
	return r, nil
}

// timeSetup times Workload.Prepare of every distinct instance the jobs use.
func timeSetup(jobs []exp.Job) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	for _, k := range instanceKeys(jobs) {
		if _, err := prepare(k.name, k.scale); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
