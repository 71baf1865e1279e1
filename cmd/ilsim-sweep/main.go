// Command ilsim-sweep runs sensitivity studies over microarchitecture
// parameters — the experiments an architect would run next with this
// infrastructure, and a demonstration of how the IL-vs-ISA gap moves with
// the hardware design point. Points execute in parallel on the experiment
// engine's worker pool; results print in design-point order regardless of
// completion order.
//
// Long campaigns are fault-tolerant: per-job timeouts and cycle budgets
// kill runaways, transient failures retry with backoff, and -journal
// checkpoints every completed job so an interrupted sweep resumes with
// -resume instead of restarting.
//
// Sweeps also distribute: -serve turns the process into a coordinator that
// leases the same job set to workers (-connect here, or ilsim-workerd) and
// assembles their streamed results in design-point order, byte-identical
// to a local run. Leases carry bundles of jobs sized by each worker's
// observed throughput (-bundle tunes the per-lease work target), the
// endpoints optionally require TLS (-tls-cert/-tls-key), client
// certificates (-tls-client-ca, mutual TLS) and a shared token (-token),
// and -watch prints a status snapshot — queue depth, per-worker
// throughput, health/quarantine state, fleet labels and the WantWorkers
// autoscaling hint — from a running coordinator (one-shot, or redrawn
// continuously with -interval, where a sparkline tracks recent fleet
// throughput). -allow-cn pins the client-certificate CommonNames a
// mutual-TLS coordinator admits; anything else is refused with 403 and
// counted in the status. -fleet N self-supervises a local in-process
// worker fleet that grows and shrinks with the coordinator's autoscaling
// hint — the one-process taste of what ilsim-fleetd does with real
// worker processes.
//
// Untrusted fleets replicate: -replicas K leases every job to K distinct
// workers and accepts only the majority result (votes are stats.Run
// fingerprints); dissenting workers are scored and quarantined. Journals
// grow one line per result plus vote audit records; -journal-compact
// rewrites one in place keeping only the latest entry per job.
//
// Usage:
//
//	ilsim-sweep -param banks  -workload ArrayBW   # VRF bank count
//	ilsim-sweep -param ib     -workload CoMD      # instruction-buffer size
//	ilsim-sweep -param waves  -workload MD        # wavefront slots per CU
//	ilsim-sweep -param l1i    -workload LULESH    # I-cache size
//	ilsim-sweep -param cus    -workload SpMV      # machine scaling (CU count)
//	ilsim-sweep -param banks -j 8 -v              # 8 workers, progress on stderr
//	ilsim-sweep -param banks -journal s.jsonl     # checkpoint completed jobs
//	ilsim-sweep -param banks -journal s.jsonl -resume   # continue after a kill
//	ilsim-sweep -param banks -serve :9666         # coordinate remote workers
//	ilsim-sweep -param banks -serve :9666 -bundle 5s -token s3cret
//	ilsim-sweep -param banks -serve :9666 -replicas 3   # quorum over untrusted workers
//	ilsim-sweep -param banks -serve :9666 -fleet 4      # self-supervised local fleet
//	ilsim-sweep -connect host:9666 -j 4           # execute leases from a coordinator
//	ilsim-sweep -watch host:9666                  # one-shot campaign status
//	ilsim-sweep -watch host:9666 -interval 2s     # live status board
//	ilsim-sweep -journal s.jsonl -journal-compact # drop superseded journal entries
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/dist"
	"ilsim/internal/exp"
	"ilsim/internal/fleet"
	"ilsim/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-sweep:", err)
		os.Exit(1)
	}
}

// run parses args and executes the sweep, writing the result table to out
// and (with -v) progress lines plus any failure summary to errw. Split
// from main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-sweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	param := fs.String("param", "banks", "parameter to sweep: "+strings.Join(exp.SweepParams(), ", "))
	name := fs.String("workload", "ArrayBW", "workload to sweep")
	scale := fs.Int("scale", 1, "input scale")
	workers := fs.Int("j", 0, "max parallel jobs (0 = GOMAXPROCS)")
	points := fs.Int("points", 0, "limit the sweep to its first N points (0 = all)")
	failFast := fs.Bool("failfast", false, "abort the sweep on the first failed point (default: collect all)")
	verbose := fs.Bool("v", false, "print per-job progress to stderr")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
	maxCycles := fs.Uint64("maxcycles", 0, "per-job simulated-cycle budget (0 = unlimited)")
	retries := fs.Int("retries", 0, "retries per transiently failing job (exponential backoff)")
	journalPath := fs.String("journal", "", "checkpoint completed jobs to this JSONL file")
	resume := fs.Bool("resume", false, "reuse an existing -journal file, re-running only unfinished jobs")
	serve := fs.String("serve", "", "coordinate the sweep over HTTP on this address instead of running it locally")
	connect := fs.String("connect", "", "run as a worker executing leases from the coordinator at this address")
	watch := fs.String("watch", "", "print a status snapshot (autoscaling and health included) from the coordinator at this address, then exit")
	interval := fs.Duration("interval", 0, "with -watch: redraw the status continuously at this period instead of one snapshot")
	replicas := fs.Int("replicas", 1, "with -serve: lease every job to this many distinct workers and accept the majority result (quorum over untrusted workers)")
	fleetN := fs.Int("fleet", 0, "with -serve: self-supervise an in-process fleet of up to N single-slot workers that tracks the autoscaling hint (0 = off)")
	allowCN := fs.String("allow-cn", "", "with -serve: comma-separated client-certificate CommonNames admitted past mutual TLS (needs -tls-client-ca); others get 403")
	scaleHorizon := fs.Duration("scale-horizon", 0, "with -serve: drain window the WantWorkers autoscaling hint aims for (0 = default 1m)")
	compact := fs.Bool("journal-compact", false, "rewrite -journal in place keeping only the latest entry per job (drops superseded entries and vote records), then exit")
	bundle := fs.Duration("bundle", dist.DefaultBundleTarget, "target work per lease: bundles are sized to this much estimated runtime (with -serve; 0 disables bundling). With -connect, caps this worker's bundles")
	token := fs.String("token", "", "shared auth token: required of workers with -serve, sent to the coordinator with -connect/-watch")
	tlsCert := fs.String("tls-cert", "", "with -serve: serve the coordinator endpoints over TLS using this PEM certificate. With -connect: present it as this worker's client certificate (mutual TLS)")
	tlsKey := fs.String("tls-key", "", "the PEM key matching -tls-cert")
	tlsClientCA := fs.String("tls-client-ca", "", "with -serve: require client certificates signed by this PEM CA on every connection (mutual TLS; needs -tls-cert/-tls-key)")
	tlsCA := fs.String("tls-ca", "", "with -connect/-watch: trust this PEM certificate (e.g. a self-signed coordinator cert) and dial https")
	tlsInsecure := fs.Bool("tls-insecure", false, "with -connect/-watch: dial https without verifying the coordinator certificate (lab use only)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	debugPprof := fs.Bool("pprof", false, "with -serve: expose net/http/pprof handlers on the coordinator's status mux")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := prof.StartOptions(prof.Options{
		CPUPath: *cpuProfile, MemPath: *memProfile,
		BlockPath: *blockProfile, MutexPath: *mutexProfile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(errw, "ilsim-sweep:", perr)
		}
	}()
	if *resume && *journalPath == "" {
		return errors.New("-resume requires -journal")
	}
	modes := 0
	for _, m := range []string{*serve, *connect, *watch} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-serve, -connect and -watch are mutually exclusive")
	}
	if *compact {
		if *journalPath == "" {
			return errors.New("-journal-compact requires -journal")
		}
		if modes > 0 {
			return errors.New("-journal-compact runs standalone (no -serve/-connect/-watch)")
		}
		kept, dropped, err := exp.CompactJournal(*journalPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "compacted %s: kept %d entries, dropped %d\n", *journalPath, kept, dropped)
		return nil
	}
	clientOpts := dist.ClientOptions{AuthToken: *token, TLSCACert: *tlsCA, TLSSkipVerify: *tlsInsecure}
	if *connect != "" || *watch != "" {
		// On the client side of the wire, -tls-cert/-tls-key are this
		// process's client certificate for a mutual-TLS coordinator.
		clientOpts.TLSCert, clientOpts.TLSKey = *tlsCert, *tlsKey
	}

	if *watch != "" {
		// Status mode: a snapshot for operators and autoscaling scripts —
		// one-shot by default, a live board with -interval.
		return watchStatus(*watch, clientOpts, *interval, out)
	}

	if *connect != "" {
		// Worker mode: the job set lives on the coordinator; every local
		// defense (retries, watchdogs, panic isolation) still applies per
		// leased job.
		slots := *workers
		if slots <= 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		eng := exp.New(0)
		eng.Retry = exp.RetryPolicy{MaxRetries: *retries}
		w := &dist.Worker{Coordinator: *connect, Slots: slots, Engine: eng,
			BundleTarget: *bundle, Client: clientOpts}
		if *verbose {
			w.Logf = func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) }
		}
		return w.Run(context.Background())
	}

	pts, err := exp.SweepPoints(*param)
	if err != nil {
		return err
	}
	if *points > 0 && *points < len(pts) {
		pts = pts[:*points]
	}
	jobs := exp.PairJobs(*name, *scale, pts, core.RunOptions{MaxCycles: *maxCycles})
	if *timeout > 0 {
		for i := range jobs {
			jobs[i].Timeout = *timeout
		}
	}

	var journal *exp.Journal
	if *journalPath != "" {
		j, err := exp.OpenJournal(*journalPath, jobs, *resume)
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Resumable(); n > 0 {
			fmt.Fprintf(errw, "resuming: %d of %d jobs already journaled in %s\n", n, len(jobs), *journalPath)
		}
		journal = j
	}
	var onProgress func(exp.Progress)
	if *verbose {
		onProgress = func(p exp.Progress) { fmt.Fprintln(errw, p.Line()) }
	}

	var runner exp.Runner
	if *serve != "" {
		// Coordinator mode: the same job set, leased to workers instead of
		// a local pool; results assemble in the same submission order.
		if *failFast {
			return errors.New("-failfast applies to the local engine; with -serve, failures are collected")
		}
		bundleTarget := *bundle
		if bundleTarget <= 0 {
			bundleTarget = -1 // 0 on the flag means "no bundling", not "default"
		}
		var allowedCNs []string
		if *allowCN != "" {
			for _, cn := range strings.Split(*allowCN, ",") {
				if cn = strings.TrimSpace(cn); cn != "" {
					allowedCNs = append(allowedCNs, cn)
				}
			}
		}
		c := dist.NewCoordinator(dist.Options{
			Addr:         *serve,
			BundleTarget: bundleTarget,
			ScaleHorizon: *scaleHorizon,
			Replicas:     *replicas,
			AuthToken:    *token,
			TLSCert:      *tlsCert,
			TLSKey:       *tlsKey,
			TLSClientCA:  *tlsClientCA,
			AllowedCNs:   allowedCNs,
			Journal:      journal,
			OnProgress:   onProgress,
			Logf:         func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) },
			DebugPprof:   *debugPprof,
		})
		if err := c.Start(); err != nil {
			return err
		}
		defer c.Close()
		fmt.Fprintf(errw, "coordinating %d jobs on %s — attach workers with: ilsim-workerd -connect %s\n",
			len(jobs), c.Addr(), c.Addr())
		if *fleetN > 0 {
			wait, err := startLocalFleet(c.Addr(), *fleetN, *retries, *token, *tlsCert != "", *tlsClientCA != "", *verbose, errw)
			if err != nil {
				return err
			}
			defer wait()
		}
		runner = c
	} else {
		if *fleetN > 0 {
			return errors.New("-fleet requires -serve (it supervises workers for a coordinator)")
		}
		eng := exp.New(*workers)
		if *failFast {
			eng.Mode = exp.FailFast
		}
		eng.Retry = exp.RetryPolicy{MaxRetries: *retries}
		eng.Journal = journal
		eng.OnProgress = onProgress
		runner = eng
	}
	results, metrics, err := runner.Run(jobs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "sweep %s on %s (scale %d)\n\n", *param, *name, *scale)
	fmt.Fprintf(out, "%-12s %12s %12s %10s %12s %12s %10s\n",
		"point", "HSAIL cyc", "GCN3 cyc", "H/G", "H conflicts", "G conflicts", "H flushes")
	for i := 0; i < len(results); i += 2 {
		h, g := results[i], results[i+1]
		if h.Err != nil || g.Err != nil {
			err := h.Err
			if err == nil {
				err = g.Err
			}
			fmt.Fprintf(out, "%-12s error [%s]: %s\n", h.Job.Label, exp.Classify(err), err)
			continue
		}
		fmt.Fprintf(out, "%-12s %12d %12d %10.2f %12d %12d %10d\n",
			h.Job.Label, h.Run.Cycles, g.Run.Cycles,
			float64(h.Run.Cycles)/float64(g.Run.Cycles),
			h.Run.VRFBankConflicts, g.Run.VRFBankConflicts, h.Run.IBFlushes)
	}
	fmt.Fprintf(out, "\n%d jobs in %.2fs (%.1f jobs/s, concurrency %.2f",
		metrics.Jobs, metrics.Elapsed.Seconds(), metrics.Throughput(), metrics.Concurrency())
	if metrics.Resumed > 0 {
		fmt.Fprintf(out, "; %d resumed from journal", metrics.Resumed)
	}
	if metrics.Retries > 0 {
		fmt.Fprintf(out, "; %d retries", metrics.Retries)
	}
	fmt.Fprintln(out, ")")
	fmt.Fprintln(out, "\nNote how the HSAIL/GCN3 gap itself moves with the design point —")
	fmt.Fprintln(out, "the paper's argument that no fixed fudge-factor can correct IL simulation.")
	if failed := exp.WriteFailureSummary(errw, results); failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(results))
	}
	return nil
}

// startLocalFleet runs a fleet.Supervisor with in-process workers
// against the coordinator at addr — the -fleet N convenience. The
// returned wait function blocks until the supervisor winds down after
// the campaign (bounded; stragglers are killed), so the process never
// exits with workers mid-flight.
func startLocalFleet(addr string, n, retries int, token string, tlsServe, mutualTLS, verbose bool, errw io.Writer) (wait func(), err error) {
	if mutualTLS {
		// Embedded workers have no client certificates to present; a
		// mutual-TLS coordinator would refuse every one of them.
		return nil, errors.New("-fleet cannot serve a mutual-TLS coordinator (-tls-client-ca); run ilsim-fleetd with worker certificates instead")
	}
	client := dist.ClientOptions{AuthToken: token}
	if tlsServe {
		// Dialing our own in-process listener: encrypted, and trust is
		// moot — it is this very process.
		client.TLSSkipVerify = true
	}
	var logf func(format string, args ...any)
	if verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) }
	}
	sup := &fleet.Supervisor{
		Coordinator: addr,
		Client:      client,
		Fleet:       "local",
		Launcher: &fleet.LocalLauncher{
			Client: client,
			Slots:  1,
			NewEngine: func() *exp.Engine {
				eng := exp.New(1)
				eng.Retry = exp.RetryPolicy{MaxRetries: retries}
				return eng
			},
			Logf: logf,
		},
		// Snappier than the daemon's defaults: a self-supervised local
		// fleet answers to a human watching one terminal.
		Policy:     fleet.Policy{Min: 1, Max: n, UpCooldown: time.Second, DownCooldown: 5 * time.Second},
		Poll:       500 * time.Millisecond,
		DrainGrace: 10 * time.Second,
		Logf:       logf,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()
	fmt.Fprintf(errw, "fleet: self-supervising up to %d local workers\n", n)
	wait = func() {
		defer cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(errw, "fleet: %v\n", err)
			}
		case <-time.After(30 * time.Second):
			cancel()
			<-done
		}
	}
	return wait, nil
}

// watchStatus renders coordinator status to out: one snapshot when
// interval is zero, otherwise a continuously redrawn board — clearing
// the screen between frames when out is a TTY, plain appended frames
// otherwise (pipes, logs). The retry/give-up policy is the shared
// dist.StatusTracker: startup noise is tolerated, rejected credentials
// abort immediately, and a coordinator that stays gone after first
// contact ends the watch. Each live frame appends a sparkline of the
// fleet's recent throughput from a client-side ring of samples.
func watchStatus(addr string, co dist.ClientOptions, interval time.Duration, out io.Writer) error {
	ctx := context.Background()
	if interval <= 0 {
		st, err := dist.FetchStatus(ctx, addr, co)
		if err != nil {
			return err
		}
		fmt.Fprint(out, st.Table())
		return nil
	}
	clearScreen := isTTY(out)
	var tracker dist.StatusTracker
	spark := &sparkline{}
	for {
		st, err := dist.FetchStatus(ctx, addr, co)
		if terr := tracker.Observe(err); terr != nil {
			return fmt.Errorf("watch %s: %w", addr, terr)
		}
		if err != nil {
			fmt.Fprintf(out, "watch %s: %v\n", addr, err)
		} else {
			spark.observe(st, time.Now())
			if clearScreen {
				fmt.Fprint(out, "\x1b[H\x1b[2J")
			}
			fmt.Fprint(out, st.Table())
			if line := spark.line(); line != "" {
				fmt.Fprintln(out, line)
			}
			if st.Finished {
				return nil
			}
		}
		time.Sleep(interval)
	}
}

// sparkRunes are the eight-level bar glyphs, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparklineWindow is how many recent samples the throughput sparkline
// keeps — one screen-width's worth of history at typical intervals.
const sparklineWindow = 32

// sparkline folds successive Status samples into an observed-throughput
// history: each pair of samples yields (done delta)/(time delta), the
// fleet's actual completion rate over that interval — measured, not the
// per-worker EWMA estimates the coordinator publishes.
type sparkline struct {
	rates    []float64
	lastDone int
	lastAt   time.Time
	primed   bool
}

// observe folds one status sample in.
func (s *sparkline) observe(st dist.Status, now time.Time) {
	if s.primed {
		if dt := now.Sub(s.lastAt).Seconds(); dt > 0 {
			rate := float64(st.Done-s.lastDone) / dt
			if rate < 0 {
				rate = 0
			}
			s.rates = append(s.rates, rate)
			if len(s.rates) > sparklineWindow {
				s.rates = s.rates[len(s.rates)-sparklineWindow:]
			}
		}
	}
	s.primed, s.lastDone, s.lastAt = true, st.Done, now
}

// line renders the history, or "" before two samples exist.
func (s *sparkline) line() string {
	if len(s.rates) == 0 {
		return ""
	}
	peak := 0.0
	for _, r := range s.rates {
		if r > peak {
			peak = r
		}
	}
	var b strings.Builder
	b.WriteString("dist: throughput ")
	for _, r := range s.rates {
		lvl := 0
		if peak > 0 {
			if lvl = int(r / peak * float64(len(sparkRunes)-1)); lvl >= len(sparkRunes) {
				lvl = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[lvl])
	}
	fmt.Fprintf(&b, " %.2f jobs/s (peak %.2f)", s.rates[len(s.rates)-1], peak)
	return b.String()
}

// isTTY reports whether w is a character device (an interactive
// terminal), the signal that in-place ANSI redraws are appropriate.
func isTTY(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}
