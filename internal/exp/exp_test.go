package exp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// tinyJobs builds a fast dual-abstraction job set over n bank points.
// testing.TB so the fuzz harness can seed its corpus with real jobs.
func tinyJobs(t testing.TB, n int) []Job {
	t.Helper()
	pts, err := SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < n {
		t.Fatalf("banks sweep has %d points, need %d", len(pts), n)
	}
	return PairJobs("ArrayBW", 1, pts[:n], core.RunOptions{})
}

func TestEngineResultOrderAndLabels(t *testing.T) {
	jobs := tinyJobs(t, 2)
	eng := New(4)
	results, m, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	if m.Jobs != len(jobs) || m.Failed != 0 {
		t.Fatalf("metrics %+v, want %d jobs, 0 failed", m, len(jobs))
	}
	for i, r := range results {
		if r.Job.Label != jobs[i].Label || r.Job.Abs != jobs[i].Abs {
			t.Fatalf("result %d is job %s, want %s", i, r.Job, jobs[i])
		}
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Job, r.Err)
		}
		if r.Run == nil || r.Run.TotalInsts() == 0 {
			t.Fatalf("job %s produced no run", r.Job)
		}
		if r.Wall <= 0 {
			t.Fatalf("job %s has no wall time", r.Job)
		}
	}
	// The HSAIL/GCN3 pairing must hold per point.
	for i := 0; i < len(results); i += 2 {
		if results[i].Job.Abs != core.AbsHSAIL || results[i+1].Job.Abs != core.AbsGCN3 {
			t.Fatalf("pair %d not (HSAIL, GCN3)", i/2)
		}
	}
}

func TestEngineProgressHook(t *testing.T) {
	jobs := tinyJobs(t, 2)
	eng := New(4)
	var calls int
	lastDone := 0
	eng.OnProgress = func(p Progress) {
		calls++
		// Serialized hook: Done must increase strictly one at a time.
		if p.Done != lastDone+1 {
			t.Errorf("progress Done = %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		if p.Total != len(jobs) {
			t.Errorf("progress Total = %d, want %d", p.Total, len(jobs))
		}
	}
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Fatalf("progress hook called %d times, want %d", calls, len(jobs))
	}
}

func TestInstanceCacheMemoizes(t *testing.T) {
	var prepares atomic.Int64
	cache := NewInstanceCacheFunc(func(workload string, scale int) (*workloads.Instance, error) {
		prepares.Add(1)
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		return w.Prepare(scale)
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cache.Get("ArrayBW", 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := prepares.Load(); n != 1 {
		t.Fatalf("Prepare ran %d times for one (workload, scale), want 1", n)
	}
	if _, err := cache.Get("ArrayBW", 2); err != nil {
		t.Fatal(err)
	}
	if n := prepares.Load(); n != 2 {
		t.Fatalf("Prepare ran %d times for two scales, want 2", n)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
}

func TestInstanceCacheMemoizesErrors(t *testing.T) {
	var prepares atomic.Int64
	boom := errors.New("boom")
	cache := NewInstanceCacheFunc(func(string, int) (*workloads.Instance, error) {
		prepares.Add(1)
		return nil, boom
	})
	for i := 0; i < 3; i++ {
		if _, err := cache.Get("X", 1); !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("failing Prepare ran %d times, want 1 (memoized)", n)
	}
}

func TestEngineSharesPreparationAcrossJobs(t *testing.T) {
	var prepares atomic.Int64
	eng := New(4)
	eng.cache = NewInstanceCacheFunc(func(workload string, scale int) (*workloads.Instance, error) {
		prepares.Add(1)
		return registryPrepare(workload, scale)
	})
	jobs := tinyJobs(t, 2) // 4 jobs, one (workload, scale)
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("engine prepared %d times for %d jobs of one workload, want 1", n, len(jobs))
	}
	// A second Run on the same engine reuses the cache entirely.
	if _, _, err := eng.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("second Run re-prepared (total %d), want cache hit", n)
	}
}

func TestFailFastCancelsRemainingJobs(t *testing.T) {
	// One bad job leading a long tail; a single worker guarantees the
	// failure is seen before the tail starts.
	jobs := []Job{{Workload: "NoSuchWorkload", Scale: 1, Abs: core.AbsHSAIL, Config: core.DefaultConfig()}}
	jobs = append(jobs, tinyJobs(t, 2)...)
	eng := New(1)
	eng.Mode = FailFast
	results, m, err := eng.Run(jobs)
	if err == nil {
		t.Fatal("FailFast returned nil error for a failing job set")
	}
	if results[0].Err == nil {
		t.Fatal("failing job carries no error")
	}
	canceled := 0
	for _, r := range results[1:] {
		if errors.Is(r.Err, ErrCanceled) {
			canceled++
		}
	}
	if canceled != len(results)-1 {
		t.Fatalf("%d of %d tail jobs canceled, want all", canceled, len(results)-1)
	}
	if m.Failed != len(jobs) {
		t.Fatalf("metrics count %d failed, want %d", m.Failed, len(jobs))
	}
}

func TestSweepPoints(t *testing.T) {
	for _, param := range SweepParams() {
		pts, err := SweepPoints(param)
		if err != nil {
			t.Fatalf("%s: %v", param, err)
		}
		if len(pts) < 4 {
			t.Fatalf("%s: only %d points", param, len(pts))
		}
		seen := map[string]bool{}
		for _, pt := range pts {
			if pt.Label == "" || seen[pt.Label] {
				t.Fatalf("%s: empty or duplicate label %q", param, pt.Label)
			}
			seen[pt.Label] = true
			if err := pt.Config.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid config: %v", param, pt.Label, err)
			}
		}
	}
	if _, err := SweepPoints("nope"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestCUSweepScalesMachine(t *testing.T) {
	pts, err := SweepPoints("cus")
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, pt := range pts {
		if pt.Config.NumCUs <= last {
			t.Fatalf("cus sweep not strictly increasing at %s", pt.Label)
		}
		last = pt.Config.NumCUs
	}
}

func TestMetricsMath(t *testing.T) {
	m := Metrics{Jobs: 8, Failed: 2, Elapsed: 2e9, JobWall: 6e9}
	if got := m.Throughput(); got != 3 {
		t.Errorf("Throughput = %v, want 3", got)
	}
	if got := m.Concurrency(); got != 3 {
		t.Errorf("Concurrency = %v, want 3", got)
	}
}

func TestJobString(t *testing.T) {
	j := Job{Label: "banks=4", Workload: "MD", Scale: 2, Abs: core.AbsGCN3}
	want := "banks=4 MD/GCN3@2"
	if got := j.String(); got != want {
		t.Errorf("Job.String() = %q, want %q", got, want)
	}
}
