package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ilsim/internal/exp"
)

// Worker executes leased jobs on a local exp.Engine and streams the
// results back to a coordinator. Every per-job defense the engine has —
// watchdog budgets, panic isolation, transient-retry policy — applies on
// the worker exactly as it would locally; the coordinator never retries a
// reported failure, it only re-leases jobs whose worker went silent.
//
// Leases arrive as bundles (sized by the coordinator from this worker's
// observed throughput); the worker executes a bundle's jobs in order and
// reports each result individually, so a crash mid-bundle forfeits only
// the un-acked remainder.
type Worker struct {
	// Coordinator is the coordinator's address (host:port, or a full
	// http(s):// base URL).
	Coordinator string
	// Name identifies this worker in leases and logs; defaults to
	// hostname-pid.
	Name string
	// Fleet names the supervisor managing this worker (empty for
	// hand-launched workers); announced at join and shown in the
	// coordinator's status table.
	Fleet string
	// Slots is the number of bundles leased and executed concurrently
	// (default 1).
	Slots int
	// Engine runs the leased jobs; nil uses a default engine. The
	// engine's Journal must stay nil — durability is the coordinator's
	// job.
	Engine *exp.Engine
	// BundleTarget, when positive, asks the coordinator to cap this
	// worker's bundles at roughly this much estimated work per lease; it
	// can only shrink bundles below the coordinator's own target.
	BundleTarget time.Duration
	// Client configures transport hardening: the shared auth token and
	// how to trust a TLS coordinator.
	Client ClientOptions
	// RetryWindow bounds how long coordinator outages (connection errors,
	// 503 before a campaign is installed) are retried before the worker
	// gives up; default 2 minutes.
	RetryWindow time.Duration
	// LongPoll asks the coordinator to hold empty lease polls this long
	// (default DefaultLongPoll; the coordinator may cap it).
	LongPoll time.Duration
	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)

	client   *http.Client
	base     string
	setFP    string
	leaseTTL time.Duration

	heldMu sync.Mutex
	held   map[int]bool

	drainMu  sync.Mutex
	drainCh  chan struct{}
	draining bool
}

// errStale marks handshake failures that retrying cannot fix: version or
// fingerprint skew between worker and coordinator binaries.
var errStale = errors.New("dist: worker binary is stale")

// Drain asks the worker to stop gracefully: the job currently executing
// in each slot finishes and reports, the unstarted remainder of each
// bundle is handed back via POST /release (so the coordinator re-leases
// immediately instead of waiting out the TTL), and Run returns nil. Safe
// to call from any goroutine, any number of times, before or during Run.
func (w *Worker) Drain() {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	if !w.draining {
		w.draining = true
		close(w.drainChLocked())
	}
}

// Draining reports whether Drain has been called.
func (w *Worker) Draining() bool {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	return w.draining
}

// drainChan returns the channel closed by Drain.
func (w *Worker) drainChan() <-chan struct{} {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	return w.drainChLocked()
}

// drainChLocked lazily creates the drain channel. Callers hold drainMu.
func (w *Worker) drainChLocked() chan struct{} {
	if w.drainCh == nil {
		w.drainCh = make(chan struct{})
	}
	return w.drainCh
}

// workerSeq disambiguates default worker names within one process.
var workerSeq uint64

// Run joins the coordinator and executes leased jobs until the campaign
// completes (nil), the context ends (ctx.Err()), or the coordinator stays
// unreachable past the retry window.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return errors.New("dist: worker needs a coordinator address")
	}
	w.base = w.Client.baseURL(w.Coordinator)
	if w.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		// Names must be unique per coordinator — leases, heartbeats and the
		// completion handshake are all keyed by them — so the default gets a
		// process-wide sequence number in case one process runs several
		// workers (tests, embedded fleets).
		w.Name = fmt.Sprintf("%s-%d-w%d", host, os.Getpid(), atomic.AddUint64(&workerSeq, 1))
	}
	if w.Slots <= 0 {
		w.Slots = 1
	}
	if w.Engine == nil {
		w.Engine = exp.New(0)
	}
	if w.RetryWindow <= 0 {
		w.RetryWindow = 2 * time.Minute
	}
	if w.LongPoll <= 0 {
		w.LongPoll = DefaultLongPoll
	}
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
	client, err := w.Client.client()
	if err != nil {
		return err
	}
	w.client = client
	w.held = make(map[int]bool)

	if err := w.join(ctx); err != nil {
		return err
	}
	w.Logf("dist: %s joined %s (lease ttl %s)", w.Name, w.base, w.leaseTTL)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go w.heartbeatLoop(ctx)

	// When Drain fires, lease long-polls (and their retry backoffs) must
	// end without interrupting job execution, which keeps running on ctx
	// until the in-flight work is reported. Canceling a poll the
	// coordinator has already answered with a bundle would strand those
	// leases until their TTL, so the worker first says goodbye: the
	// coordinator then answers pending polls with the drain flag, and a
	// bundle already granted still arrives and runBundle hands it back.
	// leaseCtx cuts the polls short only when the goodbye fails.
	leaseCtx, leaseCancel := context.WithCancel(ctx)
	defer leaseCancel()
	go func() {
		select {
		case <-w.drainChan():
			if !w.goodbye(ctx) {
				leaseCancel()
			}
		case <-leaseCtx.Done():
		}
	}()

	errc := make(chan error, w.Slots)
	for s := 0; s < w.Slots; s++ {
		go func() { errc <- w.slotLoop(ctx, leaseCtx) }()
	}
	var first error
	for s := 0; s < w.Slots; s++ {
		if err := <-errc; err != nil && first == nil {
			first = err
			cancel() // one slot failing fatally stops the rest
		}
	}
	return first
}

// join performs the handshake, retrying "coordinator not ready" until the
// retry window closes. A version or probe-fingerprint mismatch is fatal
// immediately: the binaries disagree and no amount of retrying helps.
func (w *Worker) join(ctx context.Context) error {
	deadline := time.Now().Add(w.RetryWindow)
	backoff := 250 * time.Millisecond
	for {
		var rep joinReply
		err := w.post(ctx, "/join", joinRequest{Version: ProtocolVersion, Worker: w.Name, Slots: w.Slots, Fleet: w.Fleet}, &rep)
		switch {
		case err == nil:
			if err := verifyProbe(rep); err != nil {
				return err
			}
			w.setFP = rep.SetFP
			w.leaseTTL = time.Duration(rep.LeaseTTLMS) * time.Millisecond
			if w.leaseTTL <= 0 {
				w.leaseTTL = DefaultLeaseTTL
			}
			return nil
		case isFatal(err):
			return err
		case time.Now().After(deadline):
			return fmt.Errorf("dist: coordinator %s unreachable for %s: %w", w.base, w.RetryWindow, err)
		}
		w.Logf("dist: join %s: %v (retrying)", w.base, err)
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// verifyProbe recomputes the probe job's fingerprint — the stale-binary
// detector. A worker whose exp.Job encoding (fields, config layout,
// fingerprint format) drifted from the coordinator's computes a different
// fingerprint for the same decoded job and is refused here, at join time,
// before it can taint any result.
func verifyProbe(rep joinReply) error {
	if rep.Probe == nil {
		return nil
	}
	if got := rep.Probe.Fingerprint(); got != rep.ProbeFP {
		return fmt.Errorf("%w: probe job fingerprints as %s here, %s on the coordinator", errStale, got, rep.ProbeFP)
	}
	return nil
}

// slotLoop is one concurrent execution slot: lease a bundle, execute it,
// repeat until the coordinator says the campaign is done or the worker
// drains. Lease polls run on leaseCtx so Drain cuts them short.
func (w *Worker) slotLoop(ctx, leaseCtx context.Context) error {
	for ctx.Err() == nil {
		if w.Draining() {
			return nil
		}
		var rep leaseReply
		err := w.postRetry(leaseCtx, "/lease",
			leaseRequest{Worker: w.Name, SetFP: w.setFP,
				WaitMS: w.LongPoll.Milliseconds(), BundleMS: w.BundleTarget.Milliseconds()}, &rep)
		if err != nil {
			if ctx.Err() != nil || w.Draining() {
				return nil
			}
			return err
		}
		if rep.Done {
			return nil
		}
		if rep.Drain {
			// The coordinator is retiring this worker on a supervisor's
			// behalf: same exit as a local Drain call. Other slots learn
			// via Draining() at their next poll or bundle boundary.
			w.Logf("dist: %s asked to drain by the coordinator", w.Name)
			w.Drain()
			return nil
		}
		if rep.Wait || len(rep.Jobs) == 0 {
			continue
		}
		if err := w.runBundle(ctx, rep.Jobs); err != nil {
			return err
		}
	}
	return nil
}

// runBundle executes one leased bundle in order, streaming each result
// back as it finishes. Cancellation mid-bundle abandons the un-acked
// remainder — those leases expire on the coordinator and are re-leased to
// live workers, while the jobs already reported stay done.
func (w *Worker) runBundle(ctx context.Context, bundle []leasedJob) error {
	// Re-verify every fingerprint before executing anything: one drifted
	// job encoding means the whole binary cannot be trusted.
	idxs := make([]int, len(bundle))
	for i, lj := range bundle {
		if lj.Job == nil {
			return fmt.Errorf("dist: lease carried no job for index %d", lj.Index)
		}
		if got := lj.Job.Fingerprint(); got != lj.JobFP {
			return fmt.Errorf("%w: leased job %d fingerprints as %s here, %s on the coordinator", errStale, lj.Index, got, lj.JobFP)
		}
		idxs[i] = lj.Index
	}
	// Hold the whole bundle from the start so heartbeats renew jobs still
	// queued behind the one executing; drop whatever is left on any exit
	// (acked jobs are removed one by one as they report).
	w.addHeld(idxs)
	defer w.dropHeld(idxs)
	if len(bundle) > 1 {
		w.Logf("dist: %s leased a bundle of %d jobs", w.Name, len(bundle))
	}
	for i, lj := range bundle {
		if ctx.Err() != nil {
			return nil
		}
		// Draining: hand the unstarted remainder back so it re-leases
		// immediately (jobs already reported stay done; the job that was
		// executing when Drain fired has finished by the time we get
		// here).
		if w.Draining() {
			w.releaseRemainder(ctx, idxs[i:])
			return nil
		}
		res := w.execute(ctx, lj.Index, *lj.Job)
		// A canceled attempt is abandoned, not reported: the lease expires
		// and the coordinator re-leases the job — and the rest of this
		// bundle — to a live worker, exactly as if this worker had died.
		if ctx.Err() != nil || (res.Err != nil && exp.Classify(res.Err) == exp.ClassCanceled) {
			return nil
		}
		wire := exp.EncodeResult(lj.Index, lj.JobFP, res)
		if err := w.postRetry(ctx, "/result", resultRequest{Worker: w.Name, SetFP: w.setFP, Result: wire}, &struct{}{}); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		w.dropHeld([]int{lj.Index})
		w.Logf("dist: %s finished job %d (%s)", w.Name, lj.Index, lj.Job)
	}
	return nil
}

// releaseRemainder posts the unstarted leases of a draining bundle back
// to the coordinator — best effort with a short timeout; on failure the
// coordinator reclaims them at lease-TTL expiry anyway.
func (w *Worker) releaseRemainder(ctx context.Context, idxs []int) {
	if len(idxs) == 0 {
		return
	}
	w.dropHeld(idxs)
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := w.post(rctx, "/release", releaseRequest{Worker: w.Name, SetFP: w.setFP, Indexes: idxs}, &struct{}{}); err != nil {
		w.Logf("dist: %s could not release %d leases (%v); coordinator reclaims them at TTL", w.Name, len(idxs), err)
		return
	}
	w.Logf("dist: %s released %d unstarted leases while draining", w.Name, len(idxs))
}

// goodbye tells the coordinator this worker is draining (a /release with
// no indexes) and reports whether the coordinator acknowledged it.
func (w *Worker) goodbye(ctx context.Context) bool {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return w.post(rctx, "/release", releaseRequest{Worker: w.Name, SetFP: w.setFP}, &struct{}{}) == nil
}

// addHeld and dropHeld maintain the lease set the heartbeat loop renews.
func (w *Worker) addHeld(idxs []int) {
	w.heldMu.Lock()
	for _, idx := range idxs {
		w.held[idx] = true
	}
	w.heldMu.Unlock()
}

func (w *Worker) dropHeld(idxs []int) {
	w.heldMu.Lock()
	for _, idx := range idxs {
		delete(w.held, idx)
	}
	w.heldMu.Unlock()
}

// execute runs one leased job through the local engine (a one-job set:
// the engine applies its timeout, retry, fault-injection and panic
// machinery per job anyway, and slots provide the concurrency).
func (w *Worker) execute(ctx context.Context, idx int, job exp.Job) exp.Result {
	results, _, err := w.Engine.RunContext(ctx, []exp.Job{job})
	if err != nil {
		// FailFast engines surface the job error here too; the per-result
		// error below carries the same value.
		w.Logf("dist: %s job %d: %v", w.Name, idx, err)
	}
	return results[0]
}

// heartbeatLoop renews held leases at a third of the lease TTL.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	period := w.leaseTTL / 3
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.heldMu.Lock()
			held := make([]int, 0, len(w.held))
			for idx := range w.held {
				held = append(held, idx)
			}
			w.heldMu.Unlock()
			// Best effort: a missed heartbeat only narrows the lease.
			var rep heartbeatReply
			if err := w.post(ctx, "/heartbeat", heartbeatRequest{Worker: w.Name, SetFP: w.setFP, Held: held}, &rep); err != nil {
				continue
			}
			if rep.Drain && !w.Draining() {
				// Retirement reaches a worker deep in a long bundle here,
				// one heartbeat period after the supervisor asked: the job
				// executing finishes, the rest of the bundle is released.
				w.Logf("dist: %s asked to drain by the coordinator (via heartbeat)", w.Name)
				w.Drain()
			}
		}
	}
}

// httpStatusError is a non-2xx protocol reply.
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("dist: coordinator replied %d: %s", e.code, strings.TrimSpace(e.msg))
}

// isFatal reports errors retrying cannot fix: handshake conflicts (409),
// rejected credentials (401), certificate-ACL refusals (403), and
// malformed requests (400) — the stale-binary, wrong-token, pinned-CN and
// programming-bug classes.
func isFatal(err error) bool {
	if errors.Is(err, errStale) {
		return true
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.code == http.StatusConflict || he.code == http.StatusBadRequest ||
			he.code == http.StatusUnauthorized || he.code == http.StatusForbidden
	}
	return false
}

// post sends one JSON request and decodes the JSON reply.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	w.Client.authorize(req)
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &httpStatusError{code: resp.StatusCode, msg: string(msg)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postRetry wraps post with the worker's outage policy: fatal errors and
// context cancellation return immediately, anything else (connection
// refused mid-restart, 503 while the campaign installs, 5xx hiccups)
// retries with backoff until the retry window closes.
func (w *Worker) postRetry(ctx context.Context, path string, body, out any) error {
	deadline := time.Now().Add(w.RetryWindow)
	backoff := 250 * time.Millisecond
	for {
		err := w.post(ctx, path, body, out)
		if err == nil || ctx.Err() != nil || isFatal(err) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: coordinator %s unreachable for %s: %w", w.base, w.RetryWindow, err)
		}
		w.Logf("dist: %s %s: %v (retrying)", w.Name, path, err)
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// sleepCtx sleeps d or until ctx ends, reporting whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
