package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

// TestWorkerdSmoke points the daemon's run() at an in-process coordinator
// and asserts it drains the campaign and exits cleanly.
func TestWorkerdSmoke(t *testing.T) {
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	jobs := exp.PairJobs("ArrayBW", 1, pts[:1], core.RunOptions{})

	c := dist.NewCoordinator(dist.Options{Addr: "127.0.0.1:0", LongPoll: 100 * time.Millisecond})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, metrics, err := c.Run(jobs)
		if err == nil && metrics.Failed != 0 {
			t.Errorf("campaign failed jobs: %+v", metrics)
		}
		done <- err
	}()

	var out, errw bytes.Buffer
	if err := run([]string{"-connect", c.Addr(), "-j", "2", "-v"}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "campaign complete") {
		t.Fatalf("missing completion line:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "joined") {
		t.Fatalf("-v produced no lifecycle log:\n%s", errw.String())
	}
}

// TestWorkerdChaosSmoke runs the daemon against a coordinator reached
// through a reverse proxy that fails some requests before they arrive and
// loses the replies of others after the coordinator acted on them. The
// daemon must retry through both — lost lease replies come back after the
// lease TTL, lost result replies are re-sent and deduplicated — and
// complete the campaign with no failed job.
func TestWorkerdChaosSmoke(t *testing.T) {
	jobs := campaignJobs(t, 2)
	c := dist.NewCoordinator(dist.Options{
		Addr:     "127.0.0.1:0",
		LongPoll: 100 * time.Millisecond,
		LeaseTTL: 500 * time.Millisecond,
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, metrics, err := c.Run(jobs)
		if err == nil && metrics.Failed != 0 {
			t.Errorf("campaign failed jobs under injected faults: %+v", metrics)
		}
		done <- err
	}()

	target, err := url.Parse("http://" + c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var requests, refused, lost atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := requests.Add(1); {
		case n%5 == 0: // never reaches the coordinator
			refused.Add(1)
			http.Error(w, "injected outage", http.StatusBadGateway)
		case n%7 == 0: // the coordinator acts, the reply is lost
			lost.Add(1)
			proxy.ServeHTTP(httptest.NewRecorder(), r)
			http.Error(w, "injected lost reply", http.StatusBadGateway)
		default:
			proxy.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()

	var out, errw syncBuffer // both slots log their retries
	args := []string{"-connect", ts.URL, "-j", "2", "-window", "30s", "-v"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "campaign complete") {
		t.Fatalf("missing completion line:\n%s", out.String())
	}
	if refused.Load() == 0 || lost.Load() == 0 {
		t.Fatalf("faults did not fire: %d requests, %d refused, %d replies lost",
			requests.Load(), refused.Load(), lost.Load())
	}
	if !strings.Contains(errw.String(), "retrying") {
		t.Fatalf("no retry reached the log:\n%s", errw.String())
	}
}

// TestWorkerdStatusPoll runs the daemon with -status-poll against an
// in-process coordinator and asserts the status summary reaches the
// log — at minimum the final snapshot printed at campaign exit.
func TestWorkerdStatusPoll(t *testing.T) {
	pts, err := exp.SweepPoints("banks")
	if err != nil {
		t.Fatal(err)
	}
	jobs := exp.PairJobs("ArrayBW", 1, pts[:2], core.RunOptions{})

	c := dist.NewCoordinator(dist.Options{Addr: "127.0.0.1:0", LongPoll: 100 * time.Millisecond})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Run(jobs)
		done <- err
	}()

	var out, errw bytes.Buffer
	if err := run([]string{"-connect", c.Addr(), "-j", "1", "-status-poll", "5ms"}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	log := errw.String()
	if !strings.Contains(log, "dist: ") || !strings.Contains(log, "done") {
		t.Fatalf("-status-poll logged no campaign summary:\n%s", log)
	}
}

// TestWorkerdRequiresConnect asserts the daemon refuses to start without a
// coordinator address.
func TestWorkerdRequiresConnect(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(nil, &out, &errw); err == nil {
		t.Fatal("started without -connect")
	}
}

// TestWorkerdUnreachableCoordinator bounds the give-up time with -window.
func TestWorkerdUnreachableCoordinator(t *testing.T) {
	var out, errw bytes.Buffer
	start := time.Now()
	err := run([]string{"-connect", "127.0.0.1:1", "-window", "300ms"}, &out, &errw)
	if err == nil {
		t.Fatal("connected to nothing")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("gave up after %s despite -window 300ms", time.Since(start))
	}
}
