// Command ilsim-workerd is the distributed-sweep worker daemon: it joins a
// coordinator (ilsim-sweep -serve, or any dist.Coordinator), long-polls
// for job leases, executes them on a local experiment engine — watchdog
// budgets, panic isolation and transient retries all apply per job, as
// they would locally — and streams integrity-hashed results back. It
// exits 0 when the coordinator reports the campaign complete.
//
// The join handshake refuses stale binaries: protocol versions must match
// and the worker must recompute the coordinator's job fingerprints
// identically, so a worker whose job encoding drifted can never taint a
// campaign.
//
// Leases arrive as bundles sized by this worker's observed throughput
// (-bundle caps the per-lease work target); each job's result streams back
// individually, so a kill mid-bundle forfeits only un-acked work. For
// hardened coordinators, -token sends the shared auth token,
// -tls-ca/-tls-insecure dial https, and -tls-cert/-tls-key present this
// worker's client certificate to a mutual-TLS coordinator. -status-poll
// logs the coordinator's campaign status — queue depth, lease backlog,
// live workers and slots — at a fixed interval.
//
// The first SIGINT/SIGTERM drains gracefully: in-flight jobs finish and
// report, the unstarted remainder of the current bundle is released back
// to the coordinator, and the process exits 0. A second signal aborts
// hard — work in flight cancels and held leases lapse via their TTL.
//
// Usage:
//
//	ilsim-workerd -connect host:9666              # one execution slot
//	ilsim-workerd -connect host:9666 -j 8 -v      # 8 slots, lifecycle logs
//	ilsim-workerd -connect host:9666 -retries 2   # local transient retries
//	ilsim-workerd -connect host:9666 -bundle 2s -status-poll 10s
//	ilsim-workerd -connect host:9666 -token s3cret -tls-ca coord.pem
//	ilsim-workerd -connect host:9666 -tls-ca ca.pem -tls-cert w.pem -tls-key w.key
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ilsim/internal/dist"
	"ilsim/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ilsim-workerd:", err)
		os.Exit(1)
	}
}

// run parses args and executes leases until the campaign completes; split
// from main for the smoke tests.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ilsim-workerd", flag.ContinueOnError)
	fs.SetOutput(errw)
	connect := fs.String("connect", "", "coordinator address (host:port; required)")
	name := fs.String("name", "", "worker name in leases and logs (default hostname-pid)")
	slots := fs.Int("j", 0, "concurrent execution slots (0 = GOMAXPROCS)")
	retries := fs.Int("retries", 0, "local retries per transiently failing job")
	window := fs.Duration("window", 2*time.Minute, "how long to retry an unreachable coordinator before giving up")
	bundle := fs.Duration("bundle", 0, "cap this worker's lease bundles at this much estimated work (0 = accept the coordinator's target)")
	token := fs.String("token", "", "shared auth token for a coordinator started with -token")
	tlsCA := fs.String("tls-ca", "", "trust this PEM certificate (e.g. a self-signed coordinator cert) and dial https")
	tlsInsecure := fs.Bool("tls-insecure", false, "dial https without verifying the coordinator certificate (lab use only)")
	tlsCert := fs.String("tls-cert", "", "present this PEM certificate as the worker's client certificate (mutual TLS; needs -tls-key)")
	tlsKey := fs.String("tls-key", "", "private key for -tls-cert")
	statusPoll := fs.Duration("status-poll", 0, "log the coordinator's campaign status (queue depth, lease backlog, workers) to stderr at this interval (0 = off)")
	verbose := fs.Bool("v", false, "log lifecycle events to stderr")
	debugAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("pprof listen %s: %w", *debugAddr, err)
		}
		defer ln.Close()
		fmt.Fprintf(errw, "pprof: http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, dist.NewDebugMux("ilsim-workerd"))
	}
	if *connect == "" {
		return errors.New("-connect is required")
	}
	if *slots <= 0 {
		*slots = runtime.GOMAXPROCS(0)
	}

	clientOpts := dist.ClientOptions{
		AuthToken:     *token,
		TLSCACert:     *tlsCA,
		TLSSkipVerify: *tlsInsecure,
		TLSCert:       *tlsCert,
		TLSKey:        *tlsKey,
	}
	eng := exp.New(0)
	eng.Retry = exp.RetryPolicy{MaxRetries: *retries}
	w := &dist.Worker{
		Coordinator:  *connect,
		Name:         *name,
		Slots:        *slots,
		Engine:       eng,
		BundleTarget: *bundle,
		Client:       clientOpts,
		RetryWindow:  *window,
	}
	if *verbose {
		w.Logf = func(format string, a ...any) { fmt.Fprintf(errw, format+"\n", a...) }
	}

	// Two-stage shutdown. The first SIGINT/SIGTERM drains: in-flight
	// jobs finish and report, the unstarted remainder of the bundle is
	// released back to the coordinator, and Run returns cleanly. A
	// second signal aborts hard — work cancels mid-flight and held
	// leases lapse via their TTL.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-ctx.Done():
			return
		case <-sigs:
		}
		fmt.Fprintln(errw, "draining: finishing in-flight jobs, releasing the rest (signal again to abort)")
		w.Drain()
		select {
		case <-ctx.Done():
		case <-sigs:
			fmt.Fprintln(errw, "aborting: cancelling in-flight work")
			cancel()
		}
	}()

	stopPoll := func() {}
	if *statusPoll > 0 {
		// The poller shares the worker's credentials, so a hardened
		// coordinator reports to it like an open one. It is stopped (and waited for) before the exit report so the two
		// never interleave on the log stream.
		pollStop := make(chan struct{})
		pollDone := make(chan struct{})
		var pollOnce sync.Once
		stopPoll = func() {
			pollOnce.Do(func() { close(pollStop) })
			<-pollDone
		}
		go func() {
			defer close(pollDone)
			t := time.NewTicker(*statusPoll)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-pollStop:
					return
				case <-t.C:
					if st, err := dist.FetchStatus(ctx, *connect, clientOpts); err == nil {
						fmt.Fprintln(errw, st.Summary())
					}
				}
			}
		}()
	}

	if err := w.Run(ctx); err != nil {
		stopPoll()
		return err
	}
	stopPoll()
	if *statusPoll > 0 && !w.Draining() {
		// One final snapshot so the log always ends with the campaign's
		// closing state, even when the run outpaces the poll interval.
		if st, err := dist.FetchStatus(ctx, *connect, clientOpts); err == nil {
			fmt.Fprintln(errw, st.Summary())
		}
	}
	if w.Draining() {
		fmt.Fprintln(out, "drained")
	} else {
		fmt.Fprintln(out, "campaign complete")
	}
	return nil
}
