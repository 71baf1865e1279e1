package dist

import (
	"context"
	"sync"
	"testing"
	"time"

	"ilsim/internal/exp"
)

// TestGracefulDrain drains a worker mid-bundle: the job executing when
// Drain fires must finish and report, the unstarted remainder must come
// back via POST /release (proven structurally — the lease TTL is 60s, far
// past the test's patience, so only an explicit release can free the
// jobs), and a second worker must then finish the campaign with results
// byte-identical to a local run.
func TestGracefulDrain(t *testing.T) {
	jobs := testJobs(t, 4) // 8 jobs: each point pairs into HSAIL + GCN3
	want := localFingerprints(t, jobs)

	// Slow jobs give the first worker a measurable EWMA, so its second
	// lease is a multi-job bundle — the thing a drain has to hand back.
	ctx := context.Background()
	w1 := &Worker{Name: "drainer", Slots: 1, Engine: slowEngine(jobs, 20*time.Millisecond)}
	var once sync.Once
	drained := make(chan struct{})
	c, out := startCampaign(t, ctx, Options{
		LongPoll:     100 * time.Millisecond,
		LeaseTTL:     60 * time.Second,
		BundleTarget: time.Hour, // bundle everything the EWMA allows
		Logf:         t.Logf,
		OnProgress: func(p exp.Progress) {
			// Second completion = first job of the second (bundled) lease:
			// drain while the rest of the bundle is still unstarted.
			if p.Done >= 2 {
				once.Do(func() {
					w1.Drain()
					close(drained)
				})
			}
		},
	}, jobs)
	w1.Coordinator = c.Addr()

	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Run(ctx) }()
	<-drained
	if err := <-w1Done; err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	if !w1.Draining() {
		t.Fatal("worker does not report Draining after Drain")
	}

	// The drained worker's leases are gone NOW — not in 60 seconds. The
	// released jobs are pending again and nothing is left leased to it.
	cp := waitCampaign(t, c)
	cp.mu.Lock()
	released := 0
	for idx, holders := range cp.leases {
		if _, held := holders["drainer"]; held {
			t.Errorf("job %d still leased to the drained worker", idx)
		}
		_ = idx
	}
	doneSoFar := cp.done
	maxBundle := cp.maxBundle
	for _, st := range cp.state {
		if st != stateDone {
			released++
		}
	}
	cp.mu.Unlock()
	if maxBundle < 2 {
		t.Fatalf("largest bundle was %d jobs; the drain never had a remainder to release", maxBundle)
	}
	if doneSoFar == 0 || doneSoFar == len(jobs) {
		t.Fatalf("drain landed after %d of %d jobs; want a mid-campaign drain", doneSoFar, len(jobs))
	}
	if released == 0 {
		t.Fatal("no jobs left for the relief worker")
	}

	// A relief worker finishes the campaign well inside the lease TTL.
	w2 := &Worker{Coordinator: c.Addr(), Name: "relief", Slots: 2}
	w2Done := make(chan error, 1)
	go func() { w2Done <- w2.Run(ctx) }()
	select {
	case oc := <-out:
		if oc.err != nil {
			t.Fatal(oc.err)
		}
		checkFingerprints(t, oc.results, want)
		if oc.metrics.Failed != 0 {
			t.Fatalf("metrics after drain: %+v", oc.metrics)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish: the drained leases were never released (TTL would take 60s)")
	}
	if err := <-w2Done; err != nil {
		t.Fatalf("relief worker: %v", err)
	}
}

// TestDrainAnswersPendingLeasePoll drains a worker whose only slot sits in
// a lease long-poll with nothing to lease. The drain must end that poll
// through the coordinator — a goodbye that marks the worker draining and
// wakes the poll — rather than only canceling it on the worker's side: a
// poll canceled just after the coordinator granted it a bundle would
// strand those leases until their TTL.
func TestDrainAnswersPendingLeasePoll(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, _ := startCampaign(t, ctx, Options{LongPoll: 30 * time.Second, LeaseTTL: 60 * time.Second}, jobs)

	// A holder with one slot per job leases every job and sits on it.
	holder := &Worker{Coordinator: c.Addr(), Name: "holder", Slots: len(jobs),
		Engine: slowEngine(jobs, time.Minute)}
	holderDone := make(chan error, 1)
	go func() { holderDone <- holder.Run(ctx) }()
	defer func() { cancel(); <-holderDone }()
	cp := waitCampaign(t, c)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			cp.mu.Lock()
			ok := cond()
			cp.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("the holder to lease every job", func() bool {
		for idx := range jobs {
			if _, held := cp.leases[idx]["holder"]; !held {
				return false
			}
		}
		return true
	})

	w := &Worker{Coordinator: c.Addr(), Name: "drainer", Slots: 1, LongPoll: 30 * time.Second}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	waitFor("the drainer's lease poll", func() bool {
		ws := cp.workers["drainer"]
		return ws != nil && !ws.seen.IsZero()
	})
	w.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("draining worker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not end the pending lease poll")
	}
	cp.mu.Lock()
	drained := cp.drains["drainer"]
	cp.mu.Unlock()
	if !drained {
		t.Fatal("the coordinator was never told about the drain")
	}
}

// TestCoordinatorMediatedDrain exercises the fleet scale-down contract
// end to end: POST /drain marks a worker on the coordinator, the drain
// flag reaches the worker over its heartbeat while it is deep inside a
// bundle, the worker finishes its in-flight job, releases the unstarted
// remainder and exits its run loop — and a relief worker completes the
// campaign byte-identical to a local run, proving the drain lost
// nothing. The draining worker's fleet label and Draining flag are
// visible in the status feed throughout.
func TestCoordinatorMediatedDrain(t *testing.T) {
	jobs := testJobs(t, 4) // 8 jobs: each point pairs into HSAIL + GCN3
	want := localFingerprints(t, jobs)

	ctx := context.Background()
	w1 := &Worker{Name: "auto-1", Fleet: "testfleet", Slots: 1,
		Engine: slowEngine(jobs, 60*time.Millisecond), Logf: t.Logf}
	var once sync.Once
	drained := make(chan struct{})
	c, out := startCampaign(t, ctx, Options{
		LongPoll: 100 * time.Millisecond,
		// A short lease TTL makes heartbeats (TTL/3 = 100ms) frequent
		// enough to deliver the drain mid-bundle; the slow engine keeps
		// the bundle running long past several heartbeat periods.
		LeaseTTL:     300 * time.Millisecond,
		BundleTarget: time.Hour, // bundle everything the EWMA allows
		Logf:         t.Logf,
		OnProgress: func(p exp.Progress) {
			// Second completion = the worker is inside its second (bundled)
			// lease: drain it through the coordinator, not locally.
			if p.Done >= 2 {
				once.Do(func() { close(drained) })
			}
		},
	}, jobs)
	w1.Coordinator = c.Addr()

	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Run(ctx) }()
	<-drained
	if err := RequestDrain(ctx, c.Addr(), "auto-1", ClientOptions{}); err != nil {
		t.Fatalf("RequestDrain: %v", err)
	}

	// The drain flag must reach the worker (lease poll or heartbeat) and
	// end its Run loop without an error.
	select {
	case err := <-w1Done:
		if err != nil {
			t.Fatalf("drained worker: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("worker never drained after POST /drain")
	}
	if !w1.Draining() {
		t.Fatal("worker does not report Draining after a coordinator-mediated drain")
	}

	// Mid-campaign: some jobs done, some handed back for the relief.
	cp := waitCampaign(t, c)
	cp.mu.Lock()
	doneSoFar := cp.done
	cp.mu.Unlock()
	if doneSoFar == 0 || doneSoFar == len(jobs) {
		t.Fatalf("drain landed after %d of %d jobs; want a mid-campaign drain", doneSoFar, len(jobs))
	}

	// The status feed shows the retired worker's fleet label and drain
	// state, and excludes its slots from the live capacity gauge.
	st, err := FetchStatus(ctx, c.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Draining != 1 {
		t.Fatalf("status.Draining = %d, want 1", st.Draining)
	}
	found := false
	for _, ws := range st.PerWorker {
		if ws.Name == "auto-1" {
			found = true
			if ws.Fleet != "testfleet" || !ws.Draining {
				t.Fatalf("worker row: fleet %q draining %v, want testfleet/true", ws.Fleet, ws.Draining)
			}
		}
	}
	if !found {
		t.Fatal("auto-1 missing from status")
	}
	if tbl := st.Table(); !contains(tbl, "testfleet") || !contains(tbl, "DRAINING") {
		t.Fatalf("status table missing fleet/drain columns:\n%s", tbl)
	}

	// A relief worker finishes the campaign; fingerprints match a local
	// run exactly — the drain lost nothing.
	w2 := &Worker{Coordinator: c.Addr(), Name: "relief", Slots: 2}
	w2Done := make(chan error, 1)
	go func() { w2Done <- w2.Run(ctx) }()
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Failed != 0 {
		t.Fatalf("metrics after drain: %+v", oc.metrics)
	}
	if err := <-w2Done; err != nil {
		t.Fatalf("relief worker: %v", err)
	}
}

// TestDrainBeforeRun: a worker drained before it starts leases nothing,
// reports nothing, and returns nil immediately.
func TestDrainBeforeRun(t *testing.T) {
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{LongPoll: 50 * time.Millisecond, Logf: t.Logf}, jobs)

	w := &Worker{Coordinator: c.Addr(), Name: "stillborn"}
	w.Drain()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("pre-drained worker: %v", err)
	}

	// The job is untouched; a live worker completes the campaign.
	live := &Worker{Coordinator: c.Addr(), Name: "live"}
	if err := live.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign: %+v, %v", oc.metrics, oc.err)
	}
}
