package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/exp"
)

// cpuTime returns the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-set counter, so the next
// peakRSSMB reads the peak of the coming pass only. It reports whether the
// reset worked; without it the peak covers the whole process.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// capacity is the host-capacity probe: how many cores the host really
// gives one process, measured as nproc concurrent copies of one fixed
// serial simulation against one copy.
type capacity struct {
	Nproc  int
	Cores  float64
	T1, TN time.Duration
}

// OK reports whether the probe found (nearly) every core usable. On a host
// that fails it, parallel speed-ups cannot be read from the record.
func (c capacity) OK() bool { return c.Cores >= 0.85*float64(c.Nproc) }

func (c capacity) String() string {
	s := fmt.Sprintf("host.capacity %.2f cores of %d (1 copy %.1f ms, %d copies %.1f ms)",
		c.Cores, c.Nproc, ms(c.T1), c.Nproc, ms(c.TN))
	if !c.OK() {
		s += "  FLAGGED: fewer usable cores than nproc; lulesh-s8-gcn3 and the parallel share of suite cannot be read as speed-ups"
	}
	return s
}

// probeJob is MD at scale 1 under GCN3: a short serial simulation (on an
// nproc-worker engine every job resolves to serial CU ticking).
var probeJob = exp.Job{Workload: "MD", Scale: 1, Abs: core.AbsGCN3, Config: core.DefaultConfig()}

func probeCapacity() (capacity, error) {
	n := runtime.GOMAXPROCS(0)
	eng := exp.New(n)
	eng.Mode = exp.FailFast
	copies := make([]exp.Job, n)
	for i := range copies {
		copies[i] = probeJob
	}
	// Warm up: the engine caches the prepared instance.
	if _, _, err := eng.Run(copies[:1]); err != nil {
		return capacity{}, fmt.Errorf("capacity probe: %w", err)
	}
	const reps = 7
	var t1s, tns []float64
	for r := 0; r < reps; r++ {
		for _, set := range [][]exp.Job{copies[:1], copies} {
			start := time.Now()
			if _, _, err := eng.Run(set); err != nil {
				return capacity{}, fmt.Errorf("capacity probe: %w", err)
			}
			el := time.Since(start).Seconds()
			if len(set) == 1 {
				t1s = append(t1s, el)
			} else {
				tns = append(tns, el)
			}
		}
	}
	t1, tn := summarize(t1s).Median, summarize(tns).Median
	return capacity{
		Nproc: n, Cores: float64(n) * t1 / tn,
		T1: time.Duration(t1 * float64(time.Second)), TN: time.Duration(tn * float64(time.Second)),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
