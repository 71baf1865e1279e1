package core

import (
	"runtime"
	"strings"
	"testing"
)

// TestResolveParallelism: auto (0 or negative) is the serial loop whatever
// the job count; explicit requests are honored up to the CU count and the
// drain width.
func TestResolveParallelism(t *testing.T) {
	cfg := DefaultConfig()
	width := cfg.DrainWidth()
	for _, tc := range []struct {
		requested, activeJobs int
		wantCU, wantMem       int
	}{
		{0, 1, 1, 1},
		{0, 8, 1, 1},
		{-3, 1, 1, 1},
		{1, 1, 1, 1},
		{2, 1, 2, 2},
		{2, 4, 2, 2},
		{cfg.NumCUs, 1, cfg.NumCUs, cfg.NumCUs},
		{cfg.NumCUs + 1, 1, cfg.NumCUs, cfg.NumCUs + 1},
		{width, 1, cfg.NumCUs, width},
		{width + 5, 1, cfg.NumCUs, width},
	} {
		if got := ResolveCUParallelism(tc.requested, cfg.NumCUs, tc.activeJobs); got != tc.wantCU {
			t.Errorf("ResolveCUParallelism(%d, %d, %d) = %d, want %d",
				tc.requested, cfg.NumCUs, tc.activeJobs, got, tc.wantCU)
		}
		if got := ResolveMemParallelism(tc.requested, width, tc.activeJobs); got != tc.wantMem {
			t.Errorf("ResolveMemParallelism(%d, %d, %d) = %d, want %d",
				tc.requested, width, tc.activeJobs, got, tc.wantMem)
		}
	}
	// Degenerate limits still resolve to a runnable worker count.
	if got := ResolveCUParallelism(4, 0, 1); got != 1 {
		t.Errorf("ResolveCUParallelism with 0 CUs = %d, want 1", got)
	}
}

// TestOversubscriptionWarning: the warning counts the simulations that can
// run at once — min(job workers, jobs) — times the wider intra-simulation
// setting, against GOMAXPROCS.
func TestOversubscriptionWarning(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	wide := max(cores, 2) // an intra setting above 1 on any host
	for _, tc := range []struct {
		name                            string
		jobWorkers, jobs, cuPar, memPar int
		warn                            bool
	}{
		{"serial", 0, 0, 0, 0, false},
		{"explicit serial", 64, 64, 1, 1, false},
		{"one job fills the host", 0, 1, cores, 0, false},
		{"one job, mem-par fills the host", 4 * cores, 1, 1, cores, false},
		{"one job beyond the host", 0, 1, cores + 1, 0, true},
		{"two jobs on one worker", 1, 2, cores, cores, false},
		{"jobs unknown, workers bound", 2, 0, wide, 0, true},
		{"jobs capped by count", 8, 2, 0, wide, true},
		{"default workers, many jobs", 0, 100, 2, 0, true},
	} {
		msg := OversubscriptionWarning(tc.jobWorkers, tc.jobs, tc.cuPar, tc.memPar)
		if got := msg != ""; got != tc.warn {
			t.Errorf("%s: OversubscriptionWarning(%d, %d, %d, %d) = %q, want warning %t",
				tc.name, tc.jobWorkers, tc.jobs, tc.cuPar, tc.memPar, msg, tc.warn)
		}
		if msg != "" && !strings.Contains(msg, "oversubscribes") {
			t.Errorf("%s: message %q does not say it oversubscribes", tc.name, msg)
		}
	}
}
