package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ilsim/internal/core"
)

// TestZeroValueEngine proves the zero value degrades gracefully: the
// instance cache initializes lazily instead of panicking in a worker.
func TestZeroValueEngine(t *testing.T) {
	var eng Engine
	results, m, err := eng.Run(tinyJobs(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != 0 {
		t.Fatalf("%d jobs failed on a zero-value engine", m.Failed)
	}
	for _, r := range results {
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %s: err %v, run %v", r.Job, r.Err, r.Run)
		}
	}
}

// TestPanicRecovery injects a panic into one job of a collect-all sweep:
// it must come back as a classified PanicError carrying the job label and
// a stack, with every other job unharmed and the engine reusable.
func TestPanicRecovery(t *testing.T) {
	jobs := tinyJobs(t, 2)
	eng := New(4)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), Fault{Panic: "injected crash"})

	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("CollectAll returned error: %v", err)
	}
	if m.Failed != 1 {
		t.Fatalf("metrics count %d failed, want 1", m.Failed)
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("panicking job error = %v, want *PanicError", results[1].Err)
	}
	if pe.Job != jobs[1].String() || pe.Value != "injected crash" {
		t.Fatalf("PanicError carries job %q value %v", pe.Job, pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("runJob")) {
		t.Fatalf("PanicError stack does not show the worker frame:\n%s", pe.Stack)
	}
	if got := Classify(results[1].Err); got != ClassPanic {
		t.Fatalf("panic classified as %s", got)
	}
	for i, r := range results {
		if i == 1 {
			continue
		}
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %s harmed by sibling panic: %v", r.Job, r.Err)
		}
	}
	// The engine survives: a clean rerun on the same engine succeeds.
	eng.Faults = nil
	if _, m, err := eng.Run(jobs); err != nil || m.Failed != 0 {
		t.Fatalf("engine unusable after recovered panic: %v (%d failed)", err, m.Failed)
	}
}

// TestBudgetKillsRunawayJob gives one real simulation an impossible cycle
// budget: the watchdog must kill it mid-run with ErrBudgetExceeded while
// the rest of the sweep completes.
func TestBudgetKillsRunawayJob(t *testing.T) {
	jobs := tinyJobs(t, 1)
	runaway := Job{Label: "runaway", Workload: "ArrayBW", Scale: 1, Abs: core.AbsGCN3,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxCycles: 100, CheckEvery: 16}}
	jobs = append(jobs, runaway)

	eng := New(2)
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != 1 {
		t.Fatalf("metrics count %d failed, want 1", m.Failed)
	}
	last := results[len(results)-1]
	if !errors.Is(last.Err, ErrBudgetExceeded) {
		t.Fatalf("budget job error = %v, want ErrBudgetExceeded", last.Err)
	}
	if got := Classify(last.Err); got != ClassBudget {
		t.Fatalf("budget kill classified as %s", got)
	}
	for _, r := range results[:len(results)-1] {
		if r.Err != nil {
			t.Fatalf("job %s harmed by sibling budget kill: %v", r.Job, r.Err)
		}
	}
}

// TestInstructionBudget kills a run by committed-instruction count.
func TestInstructionBudget(t *testing.T) {
	job := Job{Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxInsts: 10, CheckEvery: 16}}
	results, _, err := New(1).Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", results[0].Err)
	}
}

// TestTimeoutKillsSimulationMidRun sets a timeout that has already expired
// when the first watchdog check fires: the real simulation must die with a
// timeout-classified error instead of running to completion.
func TestTimeoutKillsSimulationMidRun(t *testing.T) {
	jobs := tinyJobs(t, 1)[:1]
	jobs[0].Timeout = time.Nanosecond
	jobs[0].Opts.CheckEvery = 16
	results, _, err := New(1).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("1ns-timeout job completed")
	}
	if got := Classify(results[0].Err); got != ClassTimeout {
		t.Fatalf("timeout classified as %s: %v", got, results[0].Err)
	}
}

// TestTimeoutKillsHangingJob uses the hang fault — a livelock stand-in that
// only cancellation can stop — under a short per-job timeout.
func TestTimeoutKillsHangingJob(t *testing.T) {
	jobs := tinyJobs(t, 1)
	jobs[0].Timeout = 20 * time.Millisecond
	eng := New(2)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Hang: true})

	start := time.Now()
	results, _, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hang job held the sweep for %v", elapsed)
	}
	if got := Classify(results[0].Err); got != ClassTimeout {
		t.Fatalf("hung job classified as %s: %v", got, results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("sibling job failed: %v", results[1].Err)
	}
}

// TestRetryTransientThenSuccess fails a job's first two attempts with a
// transient error; with retries enabled the third attempt succeeds and the
// metrics account for the extra executions.
func TestRetryTransientThenSuccess(t *testing.T) {
	jobs := tinyJobs(t, 1)
	eng := New(2)
	// A seeded jitter source keeps the backoff schedule reproducible run
	// to run, so timing-sensitive fault schedules cannot flake.
	eng.Retry = RetryPolicy{MaxRetries: 3, BaseDelay: time.Microsecond,
		Rand: rand.New(rand.NewSource(42))}
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{FailAttempts: 2, Err: Transient(errors.New("flaky prep"))})

	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("job did not recover: %v", results[0].Err)
	}
	if results[0].Attempts != 3 {
		t.Fatalf("job took %d attempts, want 3", results[0].Attempts)
	}
	if results[0].Run == nil {
		t.Fatal("recovered job has no run")
	}
	if m.Retries != 2 || m.Failed != 0 {
		t.Fatalf("metrics %+v, want 2 retries, 0 failed", m)
	}
}

// TestRetrySkipsPermanentErrors proves the taxonomy gates the retry
// policy: a permanent failure executes exactly once even with retries on.
func TestRetrySkipsPermanentErrors(t *testing.T) {
	jobs := tinyJobs(t, 1)
	eng := New(1)
	eng.Retry = RetryPolicy{MaxRetries: 5, BaseDelay: time.Microsecond}
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{FailAttempts: 99, Err: errors.New("deterministic failure")})

	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[0].Attempts != 1 {
		t.Fatalf("permanent error retried: attempts %d, err %v", results[0].Attempts, results[0].Err)
	}
	if m.Retries != 0 {
		t.Fatalf("metrics count %d retries, want 0", m.Retries)
	}
}

// TestRetryGivesUpAtMaxRetries bounds the retry loop.
func TestRetryGivesUpAtMaxRetries(t *testing.T) {
	jobs := tinyJobs(t, 1)
	eng := New(1)
	eng.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Microsecond,
		Rand: rand.New(rand.NewSource(7))}
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{FailAttempts: 99, Err: Transient(errors.New("always flaky"))})

	results, _, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Attempts != 3 { // 1 attempt + 2 retries
		t.Fatalf("job took %d attempts, want 3", results[0].Attempts)
	}
	if !IsTransient(results[0].Err) {
		t.Fatalf("final error lost its class: %v", results[0].Err)
	}
}

// TestFailFastCancelsHangingJobMidFlight is the mid-job cancellation
// proof: a hanging job (livelock stand-in, no timeout of its own) is
// released by the fail-fast cancellation triggered by a sibling failure —
// FailFast no longer only sheds unstarted jobs.
func TestFailFastCancelsHangingJobMidFlight(t *testing.T) {
	jobs := tinyJobs(t, 2) // 4 jobs
	eng := New(2)
	eng.Mode = FailFast
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[0].String(), Fault{Hang: true})
	eng.Faults.Set(jobs[1].String(), Fault{Delay: 5 * time.Millisecond,
		FailAttempts: 99, Err: errors.New("fatal config")})

	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		results, _, err = eng.Run(jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("FailFast did not cancel the hanging job")
	}
	if err == nil {
		t.Fatal("FailFast returned nil error")
	}
	if got := Classify(results[0].Err); got != ClassCanceled {
		t.Fatalf("hung job classified as %s: %v", got, results[0].Err)
	}
	for _, r := range results[2:] {
		if r.Err == nil {
			continue // may have raced to completion before the failure
		}
		if !errors.Is(r.Err, ErrCanceled) && Classify(r.Err) != ClassCanceled {
			t.Fatalf("tail job %s: %v", r.Job, r.Err)
		}
	}
}

// TestRunContextPreCanceled proves an already-ended context sheds every
// job as canceled in any mode, without executing simulations.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := tinyJobs(t, 2)
	results, m, err := New(4).RunContext(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != len(jobs) {
		t.Fatalf("%d of %d jobs canceled", m.Failed, len(jobs))
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Fatalf("job %s: %v, want ErrCanceled", r.Job, r.Err)
		}
	}
}

// TestFaultedSweepPreservesCleanResults is the headline acceptance
// criterion: a collect-all sweep containing an injected panicking job and
// an injected runaway (budget-killed) job completes, reports those two
// with their classes, and leaves every other result byte-identical (by
// stats.Run.Fingerprint) to a fault-free run of the same points.
func TestFaultedSweepPreservesCleanResults(t *testing.T) {
	base := tinyJobs(t, 2) // 4 jobs
	runaway := Job{Label: "runaway", Workload: "ArrayBW", Scale: 1, Abs: core.AbsGCN3,
		Config: core.DefaultConfig(), Opts: core.RunOptions{MaxCycles: 100, CheckEvery: 16}}

	clean, _, err := New(4).Run(base)
	if err != nil {
		t.Fatal(err)
	}

	jobs := append(append([]Job{}, base...), runaway)
	eng := New(4)
	eng.Faults = NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), Fault{Panic: "injected panic"})
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatalf("CollectAll returned error: %v", err)
	}
	if m.Failed != 2 {
		t.Fatalf("metrics count %d failed, want 2", m.Failed)
	}
	if got := Classify(results[1].Err); got != ClassPanic {
		t.Fatalf("panicking job classified as %s", got)
	}
	if got := Classify(results[4].Err); got != ClassBudget {
		t.Fatalf("runaway job classified as %s: %v", got, results[4].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Fatalf("clean job %s failed: %v", results[i].Job, results[i].Err)
		}
		if !bytes.Equal(results[i].Run.Fingerprint(), clean[i].Run.Fingerprint()) {
			t.Errorf("job %s: faulted sweep perturbed a clean result", results[i].Job)
		}
	}
}

// TestClassify pins the taxonomy.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{errors.New("boom"), ClassPermanent},
		{Transient(errors.New("boom")), ClassTransient},
		{fmt.Errorf("wrapped: %w", Transient(errors.New("boom"))), ClassTransient},
		{ErrCanceled, ClassCanceled},
		{context.Canceled, ClassCanceled},
		{fmt.Errorf("run canceled: %w", context.DeadlineExceeded), ClassTimeout},
		{fmt.Errorf("job: %w", ErrBudgetExceeded), ClassBudget},
		{&PanicError{Job: "x", Value: "v"}, ClassPanic},
		// An explicit transient wrapper outranks the inner class.
		{Transient(fmt.Errorf("t: %w", context.DeadlineExceeded)), ClassTransient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestRetryPolicyBackoffBounds checks growth, cap and jitter range.
func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, Jitter: 0.5}
	for attempt := 1; attempt <= 6; attempt++ {
		ideal := float64(10*time.Millisecond) * float64(int(1)<<(attempt-1))
		if ideal > float64(80*time.Millisecond) {
			ideal = float64(80 * time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			d := float64(p.Backoff(attempt))
			if d < ideal*0.49 || d > ideal*1.51 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]",
					attempt, time.Duration(d), time.Duration(ideal*0.5), time.Duration(ideal*1.5))
			}
		}
	}
	nj := RetryPolicy{BaseDelay: time.Millisecond, Jitter: -1}
	if d := nj.Backoff(1); d != time.Millisecond {
		t.Fatalf("jitter-free backoff = %v, want 1ms", d)
	}
	if d := nj.Backoff(3); d != 4*time.Millisecond {
		t.Fatalf("jitter-free attempt-3 backoff = %v, want 4ms", d)
	}
}

// TestJobFingerprint distinguishes every result-relevant field and is
// stable for equal jobs.
func TestJobFingerprint(t *testing.T) {
	base := Job{Label: "p", Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL,
		Config: core.DefaultConfig()}
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	vary := []Job{base, base, base, base, base, base}
	vary[1].Scale = 2
	vary[2].Abs = core.AbsGCN3
	vary[3].Config.VRFBanks++
	vary[4].Opts.MaxCycles = 7
	vary[5].Label = "q"
	seen := map[string]int{}
	for i, j := range vary {
		fp := j.Fingerprint()
		if prev, dup := seen[fp]; dup && prev != i && i != 0 {
			t.Fatalf("jobs %d and %d collide on %s", prev, i, fp)
		}
		seen[fp] = i
	}
	if len(seen) != 6 {
		t.Fatalf("%d distinct fingerprints for 6 distinct jobs", len(seen))
	}

	// Journals written by earlier builds must keep resuming: the hash of a
	// fixed job is pinned to the literal those builds produced, and the
	// ignored parallelism options do not move it.
	pinned := Job{Label: "p", Workload: "ArrayBW", Scale: 1, Abs: core.AbsHSAIL,
		Config: core.DefaultConfig(), Timeout: time.Minute,
		Opts: core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}}
	const want = "ebb5ebe37b0aab2d56dc3559"
	if got := pinned.Fingerprint(); got != want {
		t.Errorf("pinned job fingerprint = %s, want %s", got, want)
	}
	pinned.Opts.CUParallelism, pinned.Opts.MemParallelism = 4, 8
	if got := pinned.Fingerprint(); got != want {
		t.Errorf("fingerprint with parallelism options set = %s, want %s", got, want)
	}
}

// TestWriteFailureSummary checks the stderr failure report the CLIs share.
func TestWriteFailureSummary(t *testing.T) {
	results := []Result{
		{Job: Job{Workload: "A", Abs: core.AbsHSAIL, Scale: 1}},
		{Job: Job{Workload: "B", Abs: core.AbsGCN3, Scale: 1},
			Err: fmt.Errorf("died: %w", ErrBudgetExceeded)},
	}
	var buf bytes.Buffer
	if n := WriteFailureSummary(&buf, results); n != 1 {
		t.Fatalf("summary counted %d failures, want 1", n)
	}
	text := buf.String()
	if !strings.Contains(text, "FAILED") || !strings.Contains(text, "budget-exceeded") ||
		!strings.Contains(text, "B/GCN3@1") {
		t.Fatalf("summary missing fields:\n%s", text)
	}
	buf.Reset()
	if n := WriteFailureSummary(&buf, results[:1]); n != 0 || buf.Len() != 0 {
		t.Fatal("clean results produced a summary")
	}
}
