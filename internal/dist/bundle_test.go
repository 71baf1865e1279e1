package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ilsim/internal/exp"
)

// TestBundleSizeEWMA pins the sizing rule leases run on: one job until an
// estimate exists, target/EWMA once it does, the worker's own target can
// only shrink a bundle, and the hard cap holds no matter how short the
// jobs look.
func TestBundleSizeEWMA(t *testing.T) {
	jobs := testJobs(t, 4)
	cp := newCampaign(jobs, Options{BundleTarget: 2 * time.Second, LeaseTTL: DefaultLeaseTTL})
	cp.mu.Lock()
	defer cp.mu.Unlock()

	if n := cp.bundleSizeLocked("w", 0); n != 1 {
		t.Fatalf("bundle size with no estimate = %d, want 1", n)
	}
	// A worker estimate of 100ms against a 2s target fills 20 jobs.
	cp.workerLocked("w").ewma = 100 * time.Millisecond
	if n := cp.bundleSizeLocked("w", 0); n != 20 {
		t.Fatalf("bundle size = %d, want 20", n)
	}
	// A stranger falls back to the campaign-wide estimate.
	cp.ewma = 500 * time.Millisecond
	if n := cp.bundleSizeLocked("stranger", 0); n != 4 {
		t.Fatalf("fallback bundle size = %d, want 4", n)
	}
	// The worker's own preference shrinks but never grows the bundle.
	if n := cp.bundleSizeLocked("w", 300); n != 3 {
		t.Fatalf("worker-capped bundle size = %d, want 3", n)
	}
	if n := cp.bundleSizeLocked("w", (10 * time.Second).Milliseconds()); n != 20 {
		t.Fatalf("worker preference grew the bundle: %d, want 20", n)
	}
	// Very short jobs hit the absolute cap.
	cp.workerLocked("w").ewma = time.Microsecond
	if n := cp.bundleSizeLocked("w", 0); n != maxBundleJobs {
		t.Fatalf("bundle size = %d, want the %d cap", n, maxBundleJobs)
	}
	// Jobs slower than the target still lease one at a time, and a
	// negative target disables bundling outright.
	cp.workerLocked("w").ewma = 5 * time.Second
	if n := cp.bundleSizeLocked("w", 0); n != 1 {
		t.Fatalf("slow-job bundle size = %d, want 1", n)
	}
	cp.bundleTarget = -1
	cp.workerLocked("w").ewma = time.Microsecond
	if n := cp.bundleSizeLocked("w", 0); n != 1 {
		t.Fatalf("disabled bundling still granted %d jobs", n)
	}
}

// TestBundledDistributedMatchesLocal is the bundling acceptance
// criterion: with bundling active the distributed campaign must lease
// multi-job bundles (amortizing round-trips) while keeping every
// stats.Run fingerprint byte-identical to a local -j N run.
func TestBundledDistributedMatchesLocal(t *testing.T) {
	jobs := testJobs(t, 4) // 4 sweep points, 8 jobs
	want := localFingerprints(t, jobs)

	ctx := context.Background()
	// A large target with millisecond jobs forces bundles up to the cap
	// as soon as the first result establishes an EWMA.
	c, out := startCampaign(t, ctx, Options{
		BundleTarget: 10 * time.Second,
		LongPoll:     100 * time.Millisecond,
	}, jobs)

	w := &Worker{Coordinator: c.Addr(), Name: "bundler", Slots: 1}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	cp := waitCampaign(t, c)
	cp.mu.Lock()
	grants, maxBundle := cp.leaseGrants, cp.maxBundle
	cp.mu.Unlock()
	if maxBundle < 2 {
		t.Fatalf("no multi-job bundle was ever granted (max %d)", maxBundle)
	}
	if grants >= len(jobs) {
		t.Fatalf("%d lease grants for %d jobs: bundling amortized nothing", grants, len(jobs))
	}
}

// TestMidBundleWorkerKill kills a worker partway through a bundle: the
// jobs it already reported stay done, only the un-acked remainder is
// re-leased — exactly once — to a healthy worker, and the final results
// are fingerprint-identical to a fault-free local run.
func TestMidBundleWorkerKill(t *testing.T) {
	jobs := testJobs(t, 3) // 3 sweep points, 6 jobs
	want := localFingerprints(t, jobs)

	var progMu sync.Mutex
	workerByJob := make(map[int]string) // job index → worker that finished it
	doneByDoomed := make(chan int, len(jobs))
	opts := Options{
		BundleTarget: 10 * time.Second, // bundle everything after the first result
		LeaseTTL:     500 * time.Millisecond,
		LongPoll:     100 * time.Millisecond,
		OnProgress: func(p exp.Progress) {
			progMu.Lock()
			for i := range jobs {
				if jobs[i].Fingerprint() == p.Job.Fingerprint() {
					workerByJob[i] = p.Worker
				}
			}
			progMu.Unlock()
			if p.Worker == "doomed" {
				doneByDoomed <- p.Done
			}
		},
	}
	ctx := context.Background()
	c, out := startCampaign(t, ctx, opts, jobs)

	// The doomed worker runs jobs 0 and 1, then hangs forever on job 2 —
	// mid-bundle, since after job 0 its second lease bundles the rest.
	hangEng := exp.New(1)
	hangEng.Faults = exp.NewFaultPlan()
	hangEng.Faults.Set(jobs[2].String(), exp.Fault{Hang: true})
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	aDone := make(chan error, 1)
	a := &Worker{Coordinator: c.Addr(), Name: "doomed", Slots: 1, Engine: hangEng}
	go func() { aDone <- a.Run(actx) }()

	// Wait until the doomed worker has reported two jobs and is holding
	// job 2's lease (hung inside it), then kill it.
	deadline := time.Now().Add(10 * time.Second)
	for reported := 0; reported < 2; {
		select {
		case n := <-doneByDoomed:
			reported = n
		case <-time.After(time.Until(deadline)):
			t.Fatal("doomed worker never reported two jobs")
		}
	}
	cp := waitCampaign(t, c)
	for {
		cp.mu.Lock()
		byDoomed := cp.leases[2].worker == "doomed"
		cp.mu.Unlock()
		if byDoomed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never held job 2's lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	acancel()
	if err := <-aDone; err != nil {
		t.Fatalf("canceled worker returned %v", err)
	}

	// A healthy worker drains the re-leased remainder.
	b := &Worker{Coordinator: c.Addr(), Name: "healthy", Slots: 1}
	if err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	// The bundle split where the worker died: acked work stayed with the
	// doomed worker (leased once, never re-run), the remainder moved to
	// the healthy one with exactly one extra grant each.
	progMu.Lock()
	defer progMu.Unlock()
	cp.mu.Lock()
	grants := append([]int(nil), cp.grants...)
	cp.mu.Unlock()
	for i := 0; i < 2; i++ {
		if workerByJob[i] != "doomed" {
			t.Errorf("job %d finished by %q, want the doomed worker's pre-kill report", i, workerByJob[i])
		}
		if grants[i] != 1 {
			t.Errorf("job %d granted %d times, want 1 (already-acked bundle work must not re-lease)", i, grants[i])
		}
	}
	for i := 2; i < len(jobs); i++ {
		if workerByJob[i] != "healthy" {
			t.Errorf("job %d finished by %q, want the healthy worker after reassignment", i, workerByJob[i])
		}
		if grants[i] != 2 {
			t.Errorf("job %d granted %d times, want exactly 2 (one doomed bundle, one reassignment)", i, grants[i])
		}
	}
}

// TestBundledCoordinatorKillResume is the durability half of the bundling
// invariant: kill the coordinator mid-campaign while bundling is active,
// resume from its journal, and the union of results must stay
// fingerprint-identical to an uninterrupted local run.
func TestBundledCoordinatorKillResume(t *testing.T) {
	jobs := testJobs(t, 3) // 3 sweep points, 6 jobs
	want := localFingerprints(t, jobs)
	path := filepath.Join(t.TempDir(), "bundled.jsonl")

	j1, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	killed := make(chan struct{})
	var once sync.Once
	opts1 := Options{
		Journal:      j1,
		BundleTarget: 10 * time.Second,
		LongPoll:     100 * time.Millisecond,
		OnProgress: func(p exp.Progress) {
			if p.Done >= 2 {
				once.Do(func() { close(killed); cancel1() })
			}
		},
	}
	c1, out1 := startCampaign(t, ctx1, opts1, jobs)
	w1 := &Worker{Coordinator: c1.Addr(), Name: "w1", Slots: 1}
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Run(ctx1) }()

	<-killed
	oc1 := <-out1
	if err := <-w1Done; err != nil {
		t.Fatalf("worker 1: %v", err)
	}
	c1.Close()
	j1.Close()
	recorded := 0
	for _, r := range oc1.results {
		if r.Err == nil && r.Run != nil {
			recorded++
		}
	}
	if recorded == 0 || recorded == len(jobs) {
		t.Fatalf("kill landed after %d of %d jobs; want a mid-campaign kill", recorded, len(jobs))
	}

	j2, err := exp.OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumable() < 2 {
		t.Fatalf("journal resumes %d jobs, want >= 2", j2.Resumable())
	}
	ctx2 := context.Background()
	c2, out2 := startCampaign(t, ctx2, Options{
		Journal:      j2,
		BundleTarget: 10 * time.Second,
		LongPoll:     100 * time.Millisecond,
	}, jobs)
	w2 := &Worker{Coordinator: c2.Addr(), Name: "w2", Slots: 2}
	if err := w2.Run(ctx2); err != nil {
		t.Fatal(err)
	}
	oc2 := <-out2
	if oc2.err != nil {
		t.Fatal(oc2.err)
	}
	checkFingerprints(t, oc2.results, want)
	if oc2.metrics.Resumed < 2 {
		t.Fatalf("resumed campaign re-executed everything: metrics %+v", oc2.metrics)
	}
}

// TestStaleProtocolV1Refused pins the version bumps: workers speaking an
// older protocol — version 1 (pre-bundling) or version 4 (quorum, fleet
// labels and coordinator-mediated drains) — are refused at join with 409,
// and the campaign still completes on a current worker.
func TestStaleProtocolV1Refused(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{}, jobs)
	waitCampaign(t, c) // joins answer 503 until the campaign is installed

	for _, version := range []int{1, 4} {
		body, _ := json.Marshal(joinRequest{Version: version, Worker: fmt.Sprintf("v%d-relic", version)})
		resp, err := http.Post("http://"+c.Addr()+"/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("v%d join got %d, want %d", version, resp.StatusCode, http.StatusConflict)
		}
	}

	w := &Worker{Coordinator: c.Addr(), Name: "current"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign after refused stale joins: %+v, %v", oc.metrics, oc.err)
	}
}

// TestStatusSnapshot drives a campaign's counters by hand and checks the
// /status snapshot: queue depth, lease backlog, live slots, per-worker
// throughput and the active-job label.
func TestStatusSnapshot(t *testing.T) {
	jobs := testJobs(t, 4) // 4 sweep points, 8 jobs
	cp := newCampaign(jobs, Options{
		LeaseTTL:     DefaultLeaseTTL,
		BundleTarget: DefaultBundleTarget,
		Logf:         func(string, ...any) {},
	})
	now := time.Now()

	cp.mu.Lock()
	ws := cp.workerLocked("w1")
	ws.seen, ws.slots, ws.done, ws.ewma = now, 2, 2, 5*time.Second
	cp.state[0], cp.state[1] = stateDone, stateDone
	cp.done = 2
	cp.ewma = 5 * time.Second
	cp.takeLocked("w1", now, 2) // leases jobs 2 and 3
	s := cp.statusLocked(now)
	cp.mu.Unlock()

	if s.Total != 8 || s.Done != 2 {
		t.Fatalf("status counters: %+v", s)
	}
	if s.Pending != 4 || s.Leased != 2 {
		t.Fatalf("queue depth %d / backlog %d, want 4 / 2", s.Pending, s.Leased)
	}
	if s.Slots != 2 || s.Workers != 1 {
		t.Fatalf("capacity: %d workers / %d slots, want 1 / 2", s.Workers, s.Slots)
	}
	if len(s.PerWorker) != 1 || s.PerWorker[0].Held != 2 || s.PerWorker[0].Done != 2 {
		t.Fatalf("per-worker rows: %+v", s.PerWorker)
	}
	// The active-job label names the lowest-indexed held lease — the job
	// the worker is executing (bundles run in lease order).
	if want := jobs[2].String(); s.PerWorker[0].Job != want {
		t.Fatalf("active job %q, want %q", s.PerWorker[0].Job, want)
	}
	if tp := s.PerWorker[0].Throughput; tp < 0.19 || tp > 0.21 {
		t.Fatalf("throughput %v, want ~0.2 jobs/s", tp)
	}

	// A worker that said goodbye counts as draining, not as capacity.
	cp.mu.Lock()
	cp.drains["w1"] = true
	drained := cp.statusLocked(now)
	cp.abortLockedForTest()
	finished := cp.statusLocked(now)
	cp.mu.Unlock()
	if drained.Slots != 0 || drained.Draining != 1 || !drained.PerWorker[0].Draining {
		t.Fatalf("goodbye not reflected: %+v", drained)
	}
	if !finished.Finished {
		t.Fatalf("aborted campaign not finished: %+v", finished)
	}

	// The rendered forms carry the load-bearing numbers.
	if sum := s.Summary(); !contains(sum, "2/8 done") || !contains(sum, "4 pending") || !contains(sum, "1 workers/2 slots") {
		t.Fatalf("summary line: %q", sum)
	}
	if tbl := s.Table(); !contains(tbl, "w1") || !contains(tbl, "1 leases granted") {
		t.Fatalf("table: %q", tbl)
	}
}

// abortLockedForTest marks the campaign finished while cp.mu is held —
// test plumbing for statusLocked's finished branch.
func (cp *campaign) abortLockedForTest() {
	if !cp.finishedNow() {
		cp.aborted = true
		close(cp.finished)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
