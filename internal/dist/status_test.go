package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatusTableGolden pins the exact rendering of the operator board:
// summary counters, the lease line, and one row per worker — sorted by
// name, CN suffix, per-worker bundle size with the active job label ("+N
// queued" for multi-job bundles) and the DRAINING marker. A conscious
// golden test: the table is an interface to operators and to the -watch
// board, and accidental reformatting should fail loudly.
func TestStatusTableGolden(t *testing.T) {
	s := Status{
		SetFP: "abc", Total: 16, Done: 6, Failed: 1, Resumed: 2,
		Pending: 5, Leased: 4, Workers: 3, Slots: 4,
		Leases: 7, MaxBundle: 5, ETAMS: 12_300, Draining: 1,
		PerWorker: []WorkerStatus{
			{Name: "manual-1", Slots: 2, Held: 3, Done: 4, EWMAMS: 250, Throughput: 4,
				Job: "banks=16 MD/GCN3@2"},
			{Name: "lab-2", Slots: 1, Held: 0, Done: 0, Draining: true},
			{Name: "lab-1", Slots: 1, Held: 1, Done: 2, EWMAMS: 500, Throughput: 2,
				CN: "lab-client", Job: "banks=8 MD/HSAIL@2"},
		},
	}
	want := strings.Join([]string{
		"dist: 6/16 done (1 failed, 2 resumed), 5 pending, 4 leased, 3 workers/4 slots, eta 12.3s, 1 draining",
		"dist: 7 leases granted, largest bundle 5 jobs",
		"  lab-1 (lab-client)       slots 1   bundle 1   done 2    ewma 500ms    2.00 jobs/s  on banks=8 MD/HSAIL@2",
		"  lab-2                    slots 1   bundle 0   done 0    ewma 0s       0.00 jobs/s  DRAINING",
		"  manual-1                 slots 2   bundle 3   done 4    ewma 250ms    4.00 jobs/s  on banks=16 MD/GCN3@2 (+2 queued)",
		"",
	}, "\n")
	if got := s.Table(); got != want {
		t.Errorf("Table() drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatusErrorKinds sorts every failure FetchStatus can hit into the
// two kinds its callers act on: refused credentials (401, 403) are
// fatal — retrying cannot fix them — while 503 before the campaign
// installs, server errors, undecodable bodies and a dead endpoint are
// retryable.
func TestStatusErrorKinds(t *testing.T) {
	ctx := context.Background()
	serve := func(code int, body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			fmt.Fprint(w, body)
		}))
	}
	cases := []struct {
		name  string
		code  int
		body  string
		fatal bool
	}{
		{"not-ready", http.StatusServiceUnavailable, "no campaign", false},
		{"unauthorized", http.StatusUnauthorized, "bad token", true},
		{"forbidden", http.StatusForbidden, "bad certificate", true},
		{"server-error", http.StatusInternalServerError, "boom", false},
		{"bad-body", http.StatusOK, "this is not json", false},
	}
	for _, tc := range cases {
		ts := serve(tc.code, tc.body)
		_, err := FetchStatus(ctx, ts.URL, ClientOptions{})
		ts.Close()
		if err == nil {
			t.Fatalf("%s: FetchStatus succeeded", tc.name)
		}
		if IsFatal(err) != tc.fatal {
			t.Errorf("%s: IsFatal(%v) = %v, want %v", tc.name, err, !tc.fatal, tc.fatal)
		}
	}

	// A dead endpoint is retryable.
	ts := serve(http.StatusOK, "{}")
	addr := ts.URL
	ts.Close()
	if _, err := FetchStatus(ctx, addr, ClientOptions{}); err == nil || IsFatal(err) {
		t.Errorf("closed server: err = %v, want a retryable error", err)
	}

	// Success decodes.
	ts2 := serve(http.StatusOK, `{"total": 3}`)
	defer ts2.Close()
	st, err := FetchStatus(ctx, ts2.URL, ClientOptions{})
	if err != nil || st.Total != 3 {
		t.Fatalf("healthy fetch: %+v, %v", st, err)
	}
}

// TestStatusAutoscaling checks the capacity signals an external scaler
// sizes a worker pool from: Slots counts only workers heard from within
// the lease TTL that have not said goodbye, Pending plus Leased is the
// backlog, and ETAMS projects the remaining jobs at the observed rate —
// zero before any job has finished.
func TestStatusAutoscaling(t *testing.T) {
	jobs := testJobs(t, 4) // 4 sweep points, 8 jobs
	cp := newCampaign(jobs, Options{
		LeaseTTL:     time.Second,
		BundleTarget: DefaultBundleTarget,
		Logf:         func(string, ...any) {},
	})
	now := cp.start.Add(10 * time.Second)

	cp.mu.Lock()
	cp.workerLocked("live").seen = now
	cp.workerLocked("live").slots = 4
	cp.workerLocked("silent").seen = now.Add(-2 * time.Second) // past the TTL
	cp.workerLocked("silent").slots = 2
	cp.workerLocked("leaving").seen = now
	cp.workerLocked("leaving").slots = 3
	cp.drains["leaving"] = true
	idle := cp.statusLocked(now)
	for i := 0; i < 4; i++ {
		cp.state[i] = stateDone
	}
	cp.done = 4
	cp.takeLocked("live", now, 1)
	busy := cp.statusLocked(now)
	cp.mu.Unlock()

	if idle.Slots != 4 || idle.Workers != 3 || idle.Draining != 1 {
		t.Fatalf("capacity: %d slots over %d workers (%d draining), want 4 over 3 (1 draining)",
			idle.Slots, idle.Workers, idle.Draining)
	}
	if idle.Pending != 8 || idle.Leased != 0 || idle.ETAMS != 0 {
		t.Fatalf("before progress: pending %d, leased %d, eta %dms; want 8, 0, 0", idle.Pending, idle.Leased, idle.ETAMS)
	}
	if busy.Leased == 0 || busy.Pending+busy.Leased != 4 {
		t.Fatalf("backlog: pending %d + leased %d, want 4 with a lease out", busy.Pending, busy.Leased)
	}
	// 4 jobs in 10s is 0.4 jobs/s, so the other 4 need 10s more.
	if busy.ETAMS != 10_000 {
		t.Fatalf("ETA %dms, want 10000", busy.ETAMS)
	}
}
