package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/exp"
)

// testJobs builds the standard dual-abstraction job set over the first n
// bank-sweep points at unit scale — the same shape the sweep CLI submits.
func testJobs(t *testing.T, n int) []exp.Job {
	t.Helper()
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < n {
		t.Fatalf("banks sweep has %d points, need %d", len(pts), n)
	}
	return exp.PairJobs("ArrayBW", 1, pts[:n], core.RunOptions{})
}

// localFingerprints runs jobs on a local parallel engine — the reference
// the distributed paths must match byte for byte.
func localFingerprints(t *testing.T, jobs []exp.Job) [][]byte {
	t.Helper()
	results, _, err := exp.New(4).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([][]byte, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("local job %s failed: %v", r.Job, r.Err)
		}
		fps[i] = r.Run.Fingerprint()
	}
	return fps
}

// checkFingerprints asserts the distributed results match the local
// reference in submission order.
func checkFingerprints(t *testing.T, results []exp.Result, want [][]byte) {
	t.Helper()
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s) failed: %v", i, r.Job, r.Err)
		}
		if !bytes.Equal(r.Run.Fingerprint(), want[i]) {
			t.Errorf("job %d (%s): distributed fingerprint differs from local:\n--- local ---\n%s--- dist ---\n%s",
				i, r.Job, want[i], r.Run.Fingerprint())
		}
	}
}

// startCampaign launches a coordinator on a loopback port and runs jobs
// through it in the background, returning the coordinator and a channel
// with the campaign outcome.
type campaignOutcome struct {
	results []exp.Result
	metrics exp.Metrics
	err     error
}

func startCampaign(t *testing.T, ctx context.Context, opts Options, jobs []exp.Job) (*Coordinator, <-chan campaignOutcome) {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	c := NewCoordinator(opts)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	out := make(chan campaignOutcome, 1)
	go func() {
		results, metrics, err := c.RunContext(ctx, jobs)
		out <- campaignOutcome{results, metrics, err}
	}()
	return c, out
}

// waitCampaign blocks until the coordinator's campaign is installed —
// RunContext publishes it asynchronously after the journal prefill.
func waitCampaign(t *testing.T, c *Coordinator) *campaign {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cp := c.campaignFor(); cp != nil {
			return cp
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDistributedMatchesLocal is the subsystem's acceptance criterion: a
// campaign run by a coordinator and two loopback workers produces
// stats.Run fingerprints byte-identical to the same job set run locally.
func TestDistributedMatchesLocal(t *testing.T) {
	jobs := testJobs(t, 3)
	want := localFingerprints(t, jobs)

	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LongPoll: 200 * time.Millisecond}, jobs)

	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		w := &Worker{Coordinator: c.Addr(), Name: name, Slots: 2}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}

	oc := <-out
	wg.Wait()
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Jobs != len(jobs) || oc.metrics.Failed != 0 {
		t.Fatalf("metrics %+v", oc.metrics)
	}
	// Both workers joined; the campaign was actually distributed.
	cp := waitCampaign(t, c)
	cp.mu.Lock()
	workers := len(cp.workers)
	cp.mu.Unlock()
	if workers != 2 {
		t.Fatalf("%d workers joined, want 2", workers)
	}
}

// TestLeaseExpiryReassignment kills a worker mid-job — a fault-injected
// hang followed by cancellation, so it stops heartbeating exactly like a
// crashed machine — and requires the coordinator to reassign its lease to
// a healthy worker with the final result set fingerprint-identical to a
// fault-free local run.
func TestLeaseExpiryReassignment(t *testing.T) {
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)

	var progMu sync.Mutex
	workerByJob := make(map[string]string) // job fingerprint → worker that finished it
	opts := Options{
		LeaseTTL: 150 * time.Millisecond,
		LongPoll: 100 * time.Millisecond,
		OnProgress: func(p exp.Progress) {
			progMu.Lock()
			workerByJob[p.Job.Fingerprint()] = p.Worker
			progMu.Unlock()
		},
	}
	ctx := context.Background()
	c, out := startCampaign(t, ctx, opts, jobs)

	// Worker A hangs forever on job 0 (an injected livelock) and is then
	// canceled — from the coordinator's view it takes a lease and dies.
	hangEng := exp.New(1)
	hangEng.Faults = exp.NewFaultPlan()
	hangEng.Faults.Set(jobs[0].String(), exp.Fault{Hang: true})
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	aDone := make(chan error, 1)
	a := &Worker{Coordinator: c.Addr(), Name: "doomed", Slots: 1, Engine: hangEng}
	go func() { aDone <- a.Run(actx) }()

	// Wait until the doomed worker holds job 0's lease, then kill it.
	cp := waitCampaign(t, c)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cp.mu.Lock()
		_, byDoomed := cp.leases[0]["doomed"]
		cp.mu.Unlock()
		if byDoomed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never leased job 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
	acancel()
	if err := <-aDone; err != nil {
		t.Fatalf("canceled worker returned %v", err)
	}

	// A healthy worker picks up everything, including the reassigned job.
	b := &Worker{Coordinator: c.Addr(), Name: "healthy", Slots: 2}
	if err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	progMu.Lock()
	who := workerByJob[jobs[0].Fingerprint()]
	progMu.Unlock()
	if who != "healthy" {
		t.Fatalf("job 0 finished by %q, want the healthy worker after reassignment", who)
	}
}

// TestCoordinatorKillResume kills the coordinator mid-campaign and resumes
// it from its journal: the union of results before and after the restart
// must be fingerprint-identical to an uninterrupted local run, with the
// pre-kill completions restored from disk rather than re-executed.
func TestCoordinatorKillResume(t *testing.T) {
	jobs := testJobs(t, 3)
	want := localFingerprints(t, jobs)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")

	j1, err := exp.OpenJournal(path, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	killed := make(chan struct{})
	var once sync.Once
	opts1 := Options{
		Journal:  j1,
		LongPoll: 100 * time.Millisecond,
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

	// Resume: a fresh coordinator on the same journal restores the
	// completed prefix and serves only the remainder.
	j2, err := exp.OpenJournal(path, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumable() < 2 {
		t.Fatalf("journal resumes %d jobs, want >= 2", j2.Resumable())
	}
	ctx2 := context.Background()
	c2, out2 := startCampaign(t, ctx2, Options{Journal: j2, LongPoll: 100 * time.Millisecond}, jobs)
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

// TestPermanentFailureReported runs a job set with one deterministically
// failing job: the worker reports it once, the coordinator records it
// without re-leasing, and the campaign still completes.
func TestPermanentFailureReported(t *testing.T) {
	jobs := testJobs(t, 2)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LongPoll: 100 * time.Millisecond}, jobs)

	eng := exp.New(2)
	eng.Faults = exp.NewFaultPlan()
	eng.Faults.Set(jobs[1].String(), exp.Fault{FailAttempts: 99, Err: fmt.Errorf("broken config")})
	w := &Worker{Coordinator: c.Addr(), Name: "w", Slots: 2, Engine: eng}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	if oc.metrics.Failed != 1 {
		t.Fatalf("metrics %+v, want 1 failed", oc.metrics)
	}
	r := oc.results[1]
	if r.Err == nil || !strings.Contains(r.Err.Error(), "broken config") {
		t.Fatalf("failed job error = %v", r.Err)
	}
	if exp.Classify(r.Err) != exp.ClassPermanent {
		t.Fatalf("failure class %s survived the wire wrong", exp.Classify(r.Err))
	}
	if r.Attempts != 1 {
		t.Fatalf("permanent failure executed %d times", r.Attempts)
	}
}

// TestJoinVersionMismatch proves the handshake refuses a worker speaking a
// different protocol version.
func TestJoinVersionMismatch(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{}, jobs)
	// Joins answer 503 until the campaign is installed.
	waitCampaign(t, c)

	body, _ := json.Marshal(joinRequest{Version: ProtocolVersion + 1, Worker: "old"})
	resp, err := http.Post("http://"+c.Addr()+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-version join got %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	// A current worker still completes the campaign.
	w := &Worker{Coordinator: c.Addr(), Name: "new"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign after refused join: %+v, %v", oc.metrics, oc.err)
	}
}

// TestVerifyProbeStaleBinary checks the join-time fingerprint handshake: a
// probe whose fingerprint does not recompute identically (the mark of a
// worker binary with a drifted job encoding) is fatal, not retried.
func TestVerifyProbeStaleBinary(t *testing.T) {
	jobs := testJobs(t, 1)
	rep := joinReply{Probe: &jobs[0], ProbeFP: jobs[0].Fingerprint()}
	if err := verifyProbe(rep); err != nil {
		t.Fatalf("matching probe refused: %v", err)
	}
	rep.ProbeFP = "deadbeefdeadbeefdeadbeef"
	err := verifyProbe(rep)
	if err == nil || !isFatal(err) {
		t.Fatalf("stale probe accepted or retryable: %v", err)
	}
}

// TestResultIntegrityRejected posts a tampered result: the coordinator
// must refuse it (400) and leave the job to be completed properly.
func TestResultIntegrityRejected(t *testing.T) {
	jobs := testJobs(t, 1)
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LeaseTTL: 200 * time.Millisecond, LongPoll: 100 * time.Millisecond}, jobs)
	cp := waitCampaign(t, c)

	// Forge a "successful" result whose run does not hash correctly.
	results, _, err := exp.New(1).Run(jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	wire := exp.EncodeResult(0, cp.fps[0], results[0])
	wire.Run.Cycles += 12345 // tamper after hashing
	body, _ := json.Marshal(resultRequest{Worker: "evil", SetFP: cp.setFP, Result: wire})
	resp, err := http.Post("http://"+c.Addr()+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered result got %d, want 400", resp.StatusCode)
	}

	w := &Worker{Coordinator: c.Addr(), Name: "honest"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
}
