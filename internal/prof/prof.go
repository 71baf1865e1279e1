// Package prof wires Go's runtime profilers into the CLIs: one call starts
// the requested profilers, one deferred call flushes them. Keeping it here
// (instead of per-main flag plumbing) gives every binary the same
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile semantics as `go
// test`.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs; empty paths disable the corresponding
// profiler.
type Options struct {
	// CPUPath receives a CPU profile from Start until stop.
	CPUPath string
	// MemPath receives a heap profile taken at stop time (after a GC, so
	// it reflects live memory).
	MemPath string
	// BlockPath receives a blocking profile — time goroutines spend
	// parked on channels, locks and WaitGroups, e.g. -j job workers
	// waiting on the engine's scheduler.
	BlockPath string
	// MutexPath receives a mutex-contention profile (who made others
	// wait), e.g. contention on the engine's shared instance cache.
	MutexPath string
	// BlockRate is the runtime block-profile sampling rate in
	// nanoseconds-per-sample (0 = 1, every event); only used when
	// BlockPath is set.
	BlockRate int
	// MutexFraction samples 1/n mutex contention events (0 = 1, every
	// event); only used when MutexPath is set.
	MutexFraction int
}

// Start begins CPU and heap profiling. The returned stop function must be
// called exactly once; it is never nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	return StartOptions(Options{CPUPath: cpuPath, MemPath: memPath})
}

// StartOptions begins every profiler opts requests. The returned stop
// function flushes them all and must be called exactly once; it is never
// nil even on error.
func StartOptions(opts Options) (stop func() error, err error) {
	var cpuFile *os.File
	if opts.CPUPath != "" {
		cpuFile, err = os.Create(opts.CPUPath)
		if err != nil {
			return noop, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return noop, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	if opts.BlockPath != "" {
		rate := opts.BlockRate
		if rate <= 0 {
			rate = 1
		}
		runtime.SetBlockProfileRate(rate)
	}
	if opts.MutexPath != "" {
		frac := opts.MutexFraction
		if frac <= 0 {
			frac = 1
		}
		runtime.SetMutexProfileFraction(frac)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if opts.MemPath != "" {
			f, err := os.Create(opts.MemPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("prof: close heap profile: %w", err)
			}
		}
		if opts.BlockPath != "" {
			runtime.SetBlockProfileRate(0)
			if err := writeLookup("block", opts.BlockPath); err != nil {
				return err
			}
		}
		if opts.MutexPath != "" {
			runtime.SetMutexProfileFraction(0)
			if err := writeLookup("mutex", opts.MutexPath); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func noop() error { return nil }

// writeLookup flushes one of the runtime's named profiles to path.
func writeLookup(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("prof: runtime profile %q unavailable", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("prof: write %s profile: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("prof: close %s profile: %w", name, err)
	}
	return nil
}
