package dist

import (
	"context"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"ilsim/internal/exp"
)

// Options configures a Coordinator.
type Options struct {
	// Addr is the listen address (host:port; port 0 picks a free one).
	Addr string
	// LeaseTTL bounds how long a worker may hold a job without
	// heartbeating before it is reassigned (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LongPoll caps how long a /lease request is held open waiting for a
	// job to become available (default DefaultLongPoll).
	LongPoll time.Duration
	// BundleTarget is how much estimated work each lease should carry:
	// bundles are sized so their jobs sum to roughly this much runtime at
	// the worker's observed per-job EWMA. 0 means DefaultBundleTarget;
	// negative disables bundling (one job per lease, the v1 behavior).
	BundleTarget time.Duration
	// TLSCert and TLSKey are PEM file paths; when both are set the
	// coordinator serves its endpoints over TLS. Self-signed pairs work —
	// point workers at the certificate via ClientOptions.TLSCACert.
	TLSCert string
	TLSKey  string
	// TLSClientCA is a PEM CA-bundle path; when set (TLSCert/TLSKey
	// required too) the coordinator demands a client certificate signed
	// by it on every connection — mutual TLS. The client certificate's
	// CN is recorded in the worker's WorkerStatus.
	TLSClientCA string
	// AuthToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every endpoint (status and pprof included), compared in constant
	// time. Wrong or missing tokens get 401.
	AuthToken string
	// Journal, when non-nil, persists every accepted result before it is
	// acknowledged, exactly as a local engine would — the same file
	// resumes the campaign across coordinator restarts.
	Journal *exp.Journal
	// OnProgress observes every completed job, with Progress.Worker naming
	// the worker that ran it. Calls are serialized.
	OnProgress func(exp.Progress)
	// Logf, when non-nil, receives coordinator lifecycle events (worker
	// joins, lease reassignments, refused handshakes).
	Logf func(format string, args ...any)
	// DebugPprof exposes net/http/pprof handlers under /debug/pprof/ on
	// the coordinator's mux, so a long campaign can be profiled live
	// (`go tool pprof http://coordinator/debug/pprof/profile`). Off by
	// default: the endpoints reveal runtime internals.
	DebugPprof bool
}

// Coordinator serves one campaign at a time to remote workers and
// assembles their results in submission order. It satisfies exp.Runner,
// so every consumer of the local engine — the sweep CLI's table printer,
// report.CollectParallel — can run distributed by swapping the runner.
type Coordinator struct {
	opts    Options
	ln      net.Listener
	srv     *http.Server
	handler http.Handler

	mu   sync.Mutex
	camp *campaign
}

var _ exp.Runner = (*Coordinator)(nil)

// NewCoordinator creates a coordinator; call Start to bind its listener.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.LongPoll <= 0 {
		opts.LongPoll = DefaultLongPoll
	}
	if opts.BundleTarget == 0 {
		opts.BundleTarget = DefaultBundleTarget
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Coordinator{opts: opts}
}

// Handler returns the coordinator's HTTP handler — the protocol mux
// wrapped in the auth middleware — for callers that serve it on their own
// listener (httptest servers, shared muxes). Start uses the same handler.
func (c *Coordinator) Handler() http.Handler {
	if c.handler != nil {
		return c.handler
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", c.handleJoin)
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /result", c.handleResult)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /release", c.handleRelease)
	mux.HandleFunc("GET /status", c.handleStatus)
	if c.opts.DebugPprof {
		registerPprof(mux)
	}
	c.handler = c.requireAuth(mux)
	return c.handler
}

// requireAuth wraps h with the shared-token check. With no AuthToken the
// handler passes through untouched; with one, every request — status and
// pprof included — must carry the matching bearer token.
func (c *Coordinator) requireAuth(h http.Handler) http.Handler {
	token := c.opts.AuthToken
	if token == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			httpError(w, http.StatusUnauthorized, "dist: missing or wrong auth token")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// Start binds the listener — wrapped in TLS when Options.TLSCert/TLSKey
// are set — and begins serving the protocol in the background. Workers
// may connect immediately; they wait (503 → retry) until RunContext
// installs a campaign.
func (c *Coordinator) Start() error {
	if c.ln != nil {
		return nil
	}
	ln, err := c.listen()
	if err != nil {
		return err
	}
	c.serve(ln)
	return nil
}

// listen binds Options.Addr, wrapped in TLS when a server certificate is
// configured.
func (c *Coordinator) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", c.opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", c.opts.Addr, err)
	}
	if c.opts.TLSClientCA != "" && (c.opts.TLSCert == "" || c.opts.TLSKey == "") {
		ln.Close()
		return nil, fmt.Errorf("dist: -tls-client-ca requires a server certificate (TLSCert/TLSKey)")
	}
	if c.opts.TLSCert != "" || c.opts.TLSKey != "" {
		cert, err := tls.LoadX509KeyPair(c.opts.TLSCert, c.opts.TLSKey)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("dist: load TLS keypair: %w", err)
		}
		cfg := &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
		}
		if c.opts.TLSClientCA != "" {
			pem, err := os.ReadFile(c.opts.TLSClientCA)
			if err != nil {
				ln.Close()
				return nil, fmt.Errorf("dist: read client CA: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				ln.Close()
				return nil, fmt.Errorf("dist: no certificates in client CA %s", c.opts.TLSClientCA)
			}
			cfg.ClientCAs = pool
			cfg.ClientAuth = tls.RequireAndVerifyClientCert
		}
		ln = tls.NewListener(ln, cfg)
	}
	return ln, nil
}

// serve starts the protocol server on ln in the background.
func (c *Coordinator) serve(ln net.Listener) {
	c.ln = ln
	c.srv = &http.Server{Handler: c.Handler()}
	go c.srv.Serve(ln)
}

// Addr returns the bound listen address (useful with port 0).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return c.opts.Addr
	}
	return c.ln.Addr().String()
}

// closeGrace bounds how long Close waits for in-flight requests.
const closeGrace = 5 * time.Second

// Close stops serving. Requests already being answered — above all the
// Done replies that end each worker slot after a finished campaign — are
// written out first, for up to closeGrace; a worker whose reply was cut
// off would see EOF and retry a closed port for its whole outage window.
// The campaign journal (if any) stays resumable.
func (c *Coordinator) Close() error {
	if c.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := c.srv.Shutdown(ctx); err != nil {
		return c.srv.Close()
	}
	return nil
}

// Run executes the job set through remote workers (see RunContext).
func (c *Coordinator) Run(jobs []exp.Job) ([]exp.Result, exp.Metrics, error) {
	return c.RunContext(context.Background(), jobs)
}

// RunContext installs jobs as the active campaign and blocks until every
// job has a terminal result or ctx ends. Results come back in submission
// order with the same semantics as the local engine's CollectAll mode:
// per-job errors live in the results (reported permanent failures are not
// re-leased), and jobs still unfinished at cancellation carry
// exp.ErrCanceled. With a Journal attached, journaled completions are
// restored instead of re-leased and every accepted result is persisted
// before it is acknowledged to its worker.
func (c *Coordinator) RunContext(ctx context.Context, jobs []exp.Job) ([]exp.Result, exp.Metrics, error) {
	if err := c.Start(); err != nil {
		return nil, exp.Metrics{}, err
	}
	cp := newCampaign(jobs, c.opts)
	if c.opts.Journal != nil {
		if err := c.opts.Journal.Bind(jobs); err != nil {
			return nil, exp.Metrics{}, err
		}
		for i := range jobs {
			if r, ok := c.opts.Journal.Completed(i); ok {
				cp.results[i].Run, cp.results[i].Wall, cp.results[i].Resumed = r.Run, r.Wall, true
				cp.state[i] = stateDone
				cp.done++
				cp.resumed++
			}
		}
		if cp.done == len(jobs) {
			close(cp.finished)
		}
	}

	c.mu.Lock()
	c.camp = cp
	c.mu.Unlock()

	// Reclaim expired leases even when no worker traffic arrives to
	// trigger the lazy sweep in the lease handler.
	stopReclaim := make(chan struct{})
	go func() {
		t := time.NewTicker(reclaimEvery(c.opts.LeaseTTL))
		defer t.Stop()
		for {
			select {
			case <-stopReclaim:
				return
			case <-t.C:
				cp.mu.Lock()
				cp.reclaimLocked(time.Now())
				cp.mu.Unlock()
			}
		}
	}()
	defer close(stopReclaim)

	select {
	case <-cp.finished:
		// Completed normally: stay up briefly so every live worker's next
		// lease poll gets a Done reply instead of a vanished coordinator
		// (which it could not tell apart from a crash, and would retry for
		// its whole outage window).
		c.linger(ctx, cp)
	case <-ctx.Done():
		cp.abort()
	}
	return cp.assemble()
}

// linger blocks until every worker seen within the last lease TTL has been
// told the campaign is done, capped by a grace period of two long-poll
// windows — a silent worker is presumed dead, not waited for.
func (c *Coordinator) linger(ctx context.Context, cp *campaign) {
	grace := 2 * c.opts.LongPoll
	if grace > 30*time.Second {
		grace = 30 * time.Second
	}
	deadline := time.Now().Add(grace)
	for {
		now := time.Now()
		cp.mu.Lock()
		allAcked := true
		for name, ws := range cp.workers {
			if now.Sub(ws.seen) > cp.leaseTTL || cp.drains[name] {
				// Dead workers are not waited for; neither are ones that
				// said goodbye — they stop polling once their in-flight
				// work lands.
				continue
			}
			if ws.acked < ws.slots {
				allAcked = false
				break
			}
		}
		ch := cp.changed
		cp.mu.Unlock()
		if allAcked || now.After(deadline) || ctx.Err() != nil {
			return
		}
		t := time.NewTimer(20 * time.Millisecond)
		select {
		case <-ch:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// reclaimEvery picks the reclaim sweep period: a quarter TTL, floored so
// tests with millisecond TTLs still work and capped so long TTLs do not
// leave dead workers' jobs stranded for minutes after the deadline.
func reclaimEvery(ttl time.Duration) time.Duration {
	d := ttl / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// ewmaAlpha weights the newest observation in the per-worker runtime
// average bundle sizing runs on: high enough to track a workload change
// within a few jobs, low enough that one outlier cannot collapse or
// explode the next bundle.
const ewmaAlpha = 0.3

// workerState is everything the coordinator tracks per worker: liveness,
// the completion handshake and the runtime estimate behind bundle sizing.
type workerState struct {
	seen time.Time
	// slots is the worker's declared lease-poll concurrency; acked counts
	// the Done replies served to it. The coordinator lingers after
	// completion until every live worker's acked count reaches its slots,
	// so every polling slot learns the campaign is over.
	slots int
	acked int
	// done counts results accepted from this worker; ewma tracks its
	// observed per-job runtime.
	done int
	ewma time.Duration
	// cn is the CommonName of the worker's client certificate under
	// mutual TLS.
	cn string
}

// lease is one job's current holder and the deadline its heartbeats
// extend.
type lease struct {
	worker   string
	deadline time.Time
}

// campaign is the lease table and result store of one job set. Each
// unfinished job is leased to at most one worker at a time; the first
// valid result reported for a job is accepted, later ones are ignored.
type campaign struct {
	mu      sync.Mutex
	jobs    []exp.Job
	fps     []string
	setFP   string
	results []exp.Result
	state   []jobState
	leases  map[int]lease
	workers map[string]*workerState
	// drains marks workers that said goodbye (POST /release): they are
	// granted no further leases, and the post-completion linger does not
	// wait for them. A fresh join clears the mark.
	drains map[string]bool

	done, resumed, failed, retries int
	jobWall                        time.Duration
	start                          time.Time
	aborted                        bool
	// ewma is the campaign-wide per-job runtime estimate: the bundle-size
	// fallback for workers with no history yet.
	ewma time.Duration
	// leases granted and the largest bundle granted, for Status; grants
	// counts lease grants per job (a reassigned job has more than one).
	leaseGrants int
	maxBundle   int
	grants      []int
	// changed is closed and replaced on every state transition a lease
	// long-poller could care about; finished closes once when every job is
	// terminal (or the campaign aborts).
	changed  chan struct{}
	finished chan struct{}

	journal      *exp.Journal
	onProgress   func(exp.Progress)
	progressMu   sync.Mutex
	leaseTTL     time.Duration
	bundleTarget time.Duration
	logf         func(string, ...any)
}

type jobState uint8

const (
	statePending jobState = iota
	stateDone
)

func newCampaign(jobs []exp.Job, opts Options) *campaign {
	cp := &campaign{
		jobs:         jobs,
		fps:          make([]string, len(jobs)),
		setFP:        exp.JobSetFingerprint(jobs),
		results:      make([]exp.Result, len(jobs)),
		state:        make([]jobState, len(jobs)),
		grants:       make([]int, len(jobs)),
		leases:       make(map[int]lease),
		workers:      make(map[string]*workerState),
		drains:       make(map[string]bool),
		start:        time.Now(),
		changed:      make(chan struct{}),
		finished:     make(chan struct{}),
		journal:      opts.Journal,
		onProgress:   opts.OnProgress,
		leaseTTL:     opts.LeaseTTL,
		bundleTarget: opts.BundleTarget,
		logf:         opts.Logf,
	}
	for i, job := range jobs {
		cp.fps[i] = job.Fingerprint()
		cp.results[i].Job = job
	}
	return cp
}

// workerLocked returns (creating if needed) the named worker's state.
// Callers hold cp.mu.
func (cp *campaign) workerLocked(name string) *workerState {
	ws := cp.workers[name]
	if ws == nil {
		ws = &workerState{}
		cp.workers[name] = ws
	}
	return ws
}

// broadcastLocked wakes every lease long-poller. Callers hold cp.mu.
func (cp *campaign) broadcastLocked() {
	close(cp.changed)
	cp.changed = make(chan struct{})
}

// finishedNow reports whether the campaign has ended (all terminal or
// aborted).
func (cp *campaign) finishedNow() bool {
	select {
	case <-cp.finished:
		return true
	default:
		return false
	}
}

// reclaimLocked returns every expired lease to the pending pool. Leases
// are per job even when granted as a bundle, so only the un-acked
// remainder of a dead worker's bundle comes back — jobs it already
// reported stay done. Callers hold cp.mu.
func (cp *campaign) reclaimLocked(now time.Time) {
	woke := false
	for idx, l := range cp.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(cp.leases, idx)
		woke = true
		cp.logf("dist: lease on job %d (%s) held by %s expired; reassigning", idx, cp.jobs[idx], l.worker)
	}
	if woke {
		cp.broadcastLocked()
	}
}

// bundleSizeLocked sizes worker's next bundle: enough jobs to fill the
// effective bundle target at the worker's observed per-job EWMA (falling
// back to the campaign-wide estimate for a worker with no history), never
// fewer than one nor more than maxBundleJobs. workerMS, when positive, is
// the worker's own preferred target and can only shrink the bundle.
// Callers hold cp.mu.
func (cp *campaign) bundleSizeLocked(worker string, workerMS int64) int {
	target := cp.bundleTarget
	if workerPref := time.Duration(workerMS) * time.Millisecond; workerPref > 0 && (target <= 0 || workerPref < target) {
		target = workerPref
	}
	if target <= 0 {
		return 1
	}
	est := cp.ewma
	if ws := cp.workers[worker]; ws != nil && ws.ewma > 0 {
		est = ws.ewma
	}
	if est <= 0 {
		return 1
	}
	n := int(target / est)
	if n < 1 {
		return 1
	}
	if n > maxBundleJobs {
		return maxBundleJobs
	}
	return n
}

// takeLocked leases up to max of the lowest-indexed jobs that are neither
// done nor leased to worker as one bundle. Callers hold cp.mu.
func (cp *campaign) takeLocked(worker string, now time.Time, max int) []int {
	var taken []int
	deadline := now.Add(cp.leaseTTL)
	for idx, st := range cp.state {
		if st == stateDone {
			continue
		}
		if _, leased := cp.leases[idx]; leased {
			continue
		}
		cp.leases[idx] = lease{worker: worker, deadline: deadline}
		cp.grants[idx]++
		taken = append(taken, idx)
		if len(taken) >= max {
			break
		}
	}
	if len(taken) > 0 {
		cp.leaseGrants++
		if len(taken) > cp.maxBundle {
			cp.maxBundle = len(taken)
		}
	}
	return taken
}

// heartbeat extends the deadlines of held leases (only those the worker
// actually owns) and refreshes the worker's last-seen time.
func (cp *campaign) heartbeat(worker string, held []int, now time.Time) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.workerLocked(worker).seen = now
	for _, idx := range held {
		if l, ok := cp.leases[idx]; ok && l.worker == worker {
			l.deadline = now.Add(cp.leaseTTL)
			cp.leases[idx] = l
		}
	}
}

// release returns one worker's lease on a job to the pending pool (the
// worker declined it: a canceled attempt it will not retry, or a
// graceful drain handing back its unstarted bundle remainder).
func (cp *campaign) release(idx int, worker string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if l, ok := cp.leases[idx]; ok && l.worker == worker {
		delete(cp.leases, idx)
		cp.broadcastLocked()
	}
}

// record accepts worker's result for job idx unless the job is already
// done: the first result wins, and a late or duplicate delivery is
// acknowledged and dropped. The journal write happens before the job is
// marked done, so an acknowledged acceptance is always durable; a journal
// failure leaves the job pending and surfaces as a 5xx, which the worker
// retries. cp.mu is held across the write so two results for one job
// cannot both be journaled.
func (cp *campaign) record(idx int, res exp.Result, worker string) error {
	cp.mu.Lock()
	ws := cp.workerLocked(worker)
	ws.seen = time.Now()
	if cp.aborted || cp.state[idx] == stateDone {
		cp.mu.Unlock()
		return nil
	}
	if cp.journal != nil {
		if err := cp.journal.Record(idx, res); err != nil {
			cp.mu.Unlock()
			return fmt.Errorf("dist: journal: %w", err)
		}
	}
	cp.state[idx] = stateDone
	delete(cp.leases, idx) // a reassigned holder still running reports late
	ws.done++
	ws.ewma = ewma(ws.ewma, res.Wall)
	cp.ewma = ewma(cp.ewma, res.Wall)
	r := res
	r.Job = cp.jobs[idx]
	cp.results[idx] = r
	cp.done++
	if r.Err != nil {
		cp.failed++
	}
	if r.Attempts > 1 {
		cp.retries += r.Attempts - 1
	}
	cp.jobWall += r.Wall
	done, failed, resumed := cp.done, cp.failed, cp.resumed
	total := len(cp.jobs)
	elapsed := time.Since(cp.start)
	if done == total && !cp.finishedNow() {
		close(cp.finished)
	}
	cp.broadcastLocked()
	cp.mu.Unlock()

	if cp.onProgress != nil {
		cp.progressMu.Lock()
		cp.onProgress(exp.Progress{
			Done: done, Failed: failed, Total: total,
			Executed: done - resumed,
			Job:      r.Job, Err: r.Err,
			Wall: r.Wall, Elapsed: elapsed,
			ETA:    progressETA(done-resumed, done, total, elapsed),
			Worker: worker,
		})
		cp.progressMu.Unlock()
	}
	return nil
}

// ewma folds one new observation into a runtime average (seeding from the
// first observation).
func ewma(prev, obs time.Duration) time.Duration {
	if prev <= 0 {
		return obs
	}
	return time.Duration(ewmaAlpha*float64(obs) + (1-ewmaAlpha)*float64(prev))
}

// abort ends the campaign early; unfinished jobs become ErrCanceled.
func (cp *campaign) abort() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.finishedNow() {
		return
	}
	cp.aborted = true
	for i := range cp.state {
		if cp.state[i] != stateDone {
			cp.results[i].Err = exp.ErrCanceled
			cp.failed++
		}
	}
	close(cp.finished)
	cp.broadcastLocked()
}

// assemble returns the submission-ordered results and campaign metrics.
func (cp *campaign) assemble() ([]exp.Result, exp.Metrics, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := exp.Metrics{
		Jobs: len(cp.jobs), Failed: cp.failed, Resumed: cp.resumed,
		Retries: cp.retries, Elapsed: time.Since(cp.start), JobWall: cp.jobWall,
	}
	return cp.results, m, nil
}

// statusLocked assembles the Status snapshot. Callers hold cp.mu.
func (cp *campaign) statusLocked(now time.Time) Status {
	s := Status{
		SetFP: cp.setFP, Total: len(cp.jobs),
		Done: cp.done, Failed: cp.failed, Resumed: cp.resumed,
		Leased:  len(cp.leases),
		Workers: len(cp.workers),
		Leases:  cp.leaseGrants, MaxBundle: cp.maxBundle,
		Finished: cp.finishedNow(),
	}
	// Leases cover only unfinished jobs; the rest of those are queued.
	s.Pending = len(cp.jobs) - cp.done - s.Leased
	held := make(map[string]int, len(cp.workers))
	// active tracks the lowest-indexed job each worker holds: workers
	// execute bundles in lease order, so that is the job on its CPU now
	// (or next). Min over indexes keeps the label deterministic despite
	// map iteration order.
	active := make(map[string]int, len(cp.workers))
	for idx, l := range cp.leases {
		held[l.worker]++
		if cur, ok := active[l.worker]; !ok || idx < cur {
			active[l.worker] = idx
		}
	}
	for name, ws := range cp.workers {
		draining := cp.drains[name]
		if draining {
			s.Draining++
		} else if now.Sub(ws.seen) <= cp.leaseTTL {
			s.Slots += ws.slots
		}
		row := WorkerStatus{
			Name: name, Slots: ws.slots, Held: held[name],
			Done: ws.done, EWMAMS: ws.ewma.Milliseconds(),
			CN:       ws.cn,
			Draining: draining,
		}
		if ws.ewma > 0 {
			row.Throughput = float64(time.Second) / float64(ws.ewma)
		}
		if idx, ok := active[name]; ok {
			row.Job = cp.jobs[idx].String()
		}
		s.PerWorker = append(s.PerWorker, row)
	}
	s.ETAMS = progressETA(cp.done-cp.resumed, cp.done, len(cp.jobs), now.Sub(cp.start)).Milliseconds()
	return s
}

// progressETA mirrors the engine's ETA derivation (exp.Metrics.Throughput
// over executed jobs) for the coordinator's lease-aware progress stream.
func progressETA(executed, done, total int, elapsed time.Duration) time.Duration {
	tput := exp.Metrics{Jobs: done, Resumed: done - executed, Elapsed: elapsed}.Throughput()
	if tput <= 0 || total <= done {
		return 0
	}
	return time.Duration(float64(total-done) / tput * float64(time.Second))
}

// ---- HTTP handlers ----

// errNoCampaign is served (as 503) while no campaign is installed; workers
// treat it as "not yet" and retry.
var errNoCampaign = errors.New("dist: no active campaign")

// campaignFor returns the active campaign, or nil.
func (c *Coordinator) campaignFor() *campaign {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.camp
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "dist: bad request body: %v", err)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return
	}
	if req.Version != ProtocolVersion {
		cp.logf("dist: refused worker %s: protocol version %d, want %d", req.Worker, req.Version, ProtocolVersion)
		httpError(w, http.StatusConflict, "dist: protocol version %d, coordinator speaks %d (stale binary?)", req.Version, ProtocolVersion)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "dist: join without a worker name")
		return
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	cn := ""
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		cn = r.TLS.PeerCertificates[0].Subject.CommonName
	}
	cp.mu.Lock()
	ws := cp.workerLocked(req.Worker)
	ws.seen = time.Now()
	ws.slots = slots
	ws.cn = cn
	delete(cp.drains, req.Worker) // a worker rejoining under its old name is back
	nWorkers := len(cp.workers)
	cp.mu.Unlock()
	if cn != "" {
		cp.logf("dist: worker %s joined with client cert CN %q (%d known)", req.Worker, cn, nWorkers)
	} else {
		cp.logf("dist: worker %s joined (%d known)", req.Worker, nWorkers)
	}
	rep := joinReply{SetFP: cp.setFP, Total: len(cp.jobs), LeaseTTLMS: cp.leaseTTL.Milliseconds()}
	if len(cp.jobs) > 0 {
		rep.Probe, rep.ProbeFP = &cp.jobs[0], cp.fps[0]
	}
	reply(w, rep)
}

// checkSet validates a request's campaign fingerprint against the active
// campaign, writing the HTTP error itself on mismatch.
func (c *Coordinator) checkSet(w http.ResponseWriter, setFP string) *campaign {
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return nil
	}
	if setFP != cp.setFP {
		httpError(w, http.StatusConflict, "dist: job-set fingerprint %s does not match campaign %s", setFP, cp.setFP)
		return nil
	}
	return cp
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	hold := time.Duration(req.WaitMS) * time.Millisecond
	if hold <= 0 || hold > c.opts.LongPoll {
		hold = c.opts.LongPoll
	}
	deadline := time.NewTimer(hold)
	defer deadline.Stop()
	for {
		now := time.Now()
		cp.mu.Lock()
		if cp.finishedNow() {
			cp.workerLocked(req.Worker).acked++
			cp.broadcastLocked() // wake the post-completion linger
			cp.mu.Unlock()
			reply(w, leaseReply{Done: true})
			return
		}
		cp.reclaimLocked(now)
		cp.workerLocked(req.Worker).seen = now
		if cp.drains[req.Worker] {
			// The worker said goodbye while this poll was pending: answer
			// without a bundle, and its slot sees its own drain and exits.
			cp.mu.Unlock()
			reply(w, leaseReply{Wait: true})
			return
		}
		if taken := cp.takeLocked(req.Worker, now, cp.bundleSizeLocked(req.Worker, req.BundleMS)); len(taken) > 0 {
			bundle := make([]leasedJob, len(taken))
			for i, idx := range taken {
				job := cp.jobs[idx]
				bundle[i] = leasedJob{Index: idx, Job: &job, JobFP: cp.fps[idx]}
			}
			cp.mu.Unlock()
			reply(w, leaseReply{Jobs: bundle})
			return
		}
		ch := cp.changed
		cp.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			reply(w, leaseReply{Wait: true})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	idx := req.Result.Index
	if idx < 0 || idx >= len(cp.jobs) {
		httpError(w, http.StatusBadRequest, "dist: result index %d out of range", idx)
		return
	}
	if req.Result.Job != cp.fps[idx] {
		httpError(w, http.StatusConflict, "dist: result for job %d carries fingerprint %s, want %s (stale binary?)", idx, req.Result.Job, cp.fps[idx])
		return
	}
	res, err := req.Result.Decode()
	if err != nil {
		// An integrity-hash failure means the payload cannot be trusted:
		// refuse it and free the sender's lease for re-assignment.
		var ie *exp.IntegrityError
		if errors.As(err, &ie) {
			cp.logf("dist: refused result for job %d from %s: %v", idx, req.Worker, err)
			cp.release(idx, req.Worker)
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A canceled attempt is not an outcome — the worker died mid-job or
	// declined it; put the job back up for lease.
	if res.Err != nil && exp.Classify(res.Err) == exp.ClassCanceled {
		cp.release(idx, req.Worker)
		reply(w, struct{}{})
		return
	}
	if err := cp.record(idx, res, req.Worker); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	reply(w, struct{}{})
}

// handleRelease hands a draining worker's unstarted leases back so they
// re-lease immediately instead of waiting out the TTL.
func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	for _, idx := range req.Indexes {
		cp.release(idx, req.Worker)
	}
	if len(req.Indexes) > 0 {
		cp.logf("dist: worker %s released %d leases", req.Worker, len(req.Indexes))
	}
	// Handing leases back without results is a worker's goodbye — mark it
	// draining so status reflects it and the linger does not wait for it,
	// and wake its pending lease polls so they answer without a bundle.
	cp.mu.Lock()
	cp.drains[req.Worker] = true
	cp.broadcastLocked()
	cp.mu.Unlock()
	reply(w, struct{}{})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cp := c.checkSet(w, req.SetFP)
	if cp == nil {
		return
	}
	cp.heartbeat(req.Worker, req.Held, time.Now())
	reply(w, struct{}{})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	cp := c.campaignFor()
	if cp == nil {
		httpError(w, http.StatusServiceUnavailable, "%v", errNoCampaign)
		return
	}
	cp.mu.Lock()
	s := cp.statusLocked(time.Now())
	cp.mu.Unlock()
	reply(w, s)
}
