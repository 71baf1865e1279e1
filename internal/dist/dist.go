// Package dist distributes experiment campaigns across machines. A
// Coordinator owns one declarative job set (the same []exp.Job a local
// engine would run), serves it over HTTP as short-lived leases, and
// assembles the streamed-back results in submission order — so a
// distributed campaign is byte-identical, fingerprint for fingerprint, to
// the same job set run in one process. Workers wrap an ordinary
// exp.Engine: watchdog budgets, panic isolation and transient retries all
// apply per job on the worker, while the coordinator only re-leases jobs
// whose worker went silent (heartbeats stop, lease deadline passes).
//
// Leases carry *bundles* of jobs, not single jobs: the coordinator sizes
// each bundle from an EWMA of the worker's observed per-job runtime so
// every lease round-trip amortizes over roughly Options.BundleTarget of
// work. Results still stream back one at a time, so partial-bundle
// progress survives worker death — lease expiry reassigns only the
// un-acked remainder of a bundle, never work already reported.
//
// The protocol is six JSON-over-HTTP endpoints:
//
//	POST /join       version + probe-fingerprint handshake; stale binaries refused
//	POST /lease      long-poll for a bundle of jobs (index, job, fingerprint each)
//	POST /result     stream back one exp.WireResult (integrity-hashed)
//	POST /heartbeat  keep held leases alive
//	POST /release    hand unstarted leases back (graceful drain)
//	GET  /status     campaign counters and per-worker rows
//
// Each job is leased to one worker at a time and the first valid result
// for it wins. Every result is integrity-hash checked at decode, so a
// payload damaged on the wire is refused and its job re-leased.
//
// Transport hardening is opt-in: Options.TLSCert/TLSKey serve the
// endpoints over TLS (self-signed works — point workers at the cert with
// ClientOptions.TLSCACert), Options.AuthToken requires a shared bearer
// token on every request, checked in constant time, and
// Options.TLSClientCA demands client certificates (mutual TLS) — the
// worker's certificate CN is then recorded in its WorkerStatus.
//
// Durability is the journal's: attach an exp.Journal to the coordinator
// and every accepted result is fsynced before it is acknowledged, so a
// killed coordinator resumes mid-campaign exactly like a local -resume
// run — the journal file format is the same.
package dist

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ilsim/internal/exp"
)

// ProtocolVersion gates the coordinator/worker handshake; both sides must
// match exactly. Bump it on any wire-visible change.
//
// History: 1 = single-job leases; 2 = bundled leases (leaseReply.Jobs),
// bundle targets in leaseRequest, autoscaling fields in Status; 3 =
// POST /release (graceful drain), quorum re-execution (multi-worker
// leases per job), health/quarantine fields in Status; 4 = fleet labels
// in the join handshake and Status, coordinator-mediated drain (POST
// /drain, drain flags on lease and heartbeat replies); 5 = removed quorum
// leases, the health/quarantine and autoscaling fields of Status, fleet
// labels, POST /drain and the drain flags on lease and heartbeat replies:
// one worker per lease, first result wins.
const ProtocolVersion = 5

// Defaults for the lease lifecycle. LeaseTTL bounds how long a silent
// worker keeps a bundle before its un-acked jobs are reassigned; workers
// heartbeat at a third of the TTL, so one lost heartbeat does not forfeit
// a lease. BundleTarget is how much estimated work one lease round-trip
// should amortize over.
const (
	DefaultLeaseTTL     = 30 * time.Second
	DefaultLongPoll     = 10 * time.Second
	DefaultBundleTarget = 3 * time.Second
)

// maxBundleJobs caps one lease's bundle regardless of how short the jobs
// look: a crashed worker forfeits at most this much un-acked work per
// slot, and the EWMA stays honest because estimates refresh at least this
// often.
const maxBundleJobs = 64

// joinRequest opens a worker's session with the coordinator. Slots is the
// worker's concurrent lease-poll count: after the campaign completes, the
// coordinator stays up until each live worker has received that many Done
// replies (one per slot), so no slot is left dialing a vanished server.
type joinRequest struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"`
	Slots   int    `json:"slots"`
}

// joinReply fixes the campaign identity for the session. Probe is one job
// of the set with the coordinator's fingerprint for it: the worker
// recomputes the fingerprint from the decoded job, and a mismatch — the
// mark of a stale worker binary whose job encoding drifted — aborts the
// session before any lease is granted.
type joinReply struct {
	SetFP      string   `json:"setFp"`
	Total      int      `json:"total"`
	LeaseTTLMS int64    `json:"leaseTtlMs"`
	Probe      *exp.Job `json:"probe,omitempty"`
	ProbeFP    string   `json:"probeFp,omitempty"`
}

// leaseRequest asks for a bundle of jobs, long-polling up to WaitMS when
// none is available. BundleMS is the worker's preferred bundle target; a
// positive value below the coordinator's own target shrinks the bundle
// (a worker never grows it — the coordinator's target is the ceiling).
type leaseRequest struct {
	Worker   string `json:"worker"`
	SetFP    string `json:"setFp"`
	WaitMS   int64  `json:"waitMs"`
	BundleMS int64  `json:"bundleMs,omitempty"`
}

// leasedJob is one job of a bundle: its submission index, the job itself,
// and the coordinator's fingerprint for it (re-verified by the worker).
type leasedJob struct {
	Index int      `json:"index"`
	Job   *exp.Job `json:"job"`
	JobFP string   `json:"jobFp"`
}

// leaseReply grants a bundle of jobs, asks the worker to poll again
// (Wait — also the answer to a worker that has said goodbye), or ends the
// session (Done — the campaign is complete).
type leaseReply struct {
	Done bool        `json:"done,omitempty"`
	Wait bool        `json:"wait,omitempty"`
	Jobs []leasedJob `json:"jobs,omitempty"`
}

// resultRequest streams one finished job back. Bundles report job by job,
// so a worker that dies mid-bundle loses only its un-acked remainder.
type resultRequest struct {
	Worker string         `json:"worker"`
	SetFP  string         `json:"setFp"`
	Result exp.WireResult `json:"result"`
}

// heartbeatRequest renews the deadlines of every lease the worker holds.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	SetFP  string `json:"setFp"`
	Held   []int  `json:"held"`
}

// releaseRequest hands leases back without results — a draining worker's
// goodbye, so the coordinator re-leases immediately instead of waiting
// out the TTL. An empty Indexes list is the goodbye alone.
type releaseRequest struct {
	Worker  string `json:"worker"`
	SetFP   string `json:"setFp"`
	Indexes []int  `json:"indexes"`
}

// WorkerStatus is one worker's row in the Status snapshot.
type WorkerStatus struct {
	Name string `json:"name"`
	// Slots is the concurrency the worker declared at join.
	Slots int `json:"slots"`
	// Held counts the leases the worker currently holds — the size of its
	// in-flight bundle.
	Held int `json:"held"`
	// Job labels the lowest-indexed job the worker currently holds (its
	// active work, since workers execute bundles in lease order); empty
	// when the worker holds nothing.
	Job string `json:"job,omitempty"`
	// Done counts results the coordinator accepted from this worker.
	Done int `json:"done"`
	// EWMAMS is the exponentially weighted moving average of the worker's
	// observed per-job runtime, in milliseconds — the estimate bundle
	// sizing runs on.
	EWMAMS int64 `json:"ewmaMs"`
	// Throughput is the worker's estimated rate in jobs per second
	// (1/EWMA; 0 until a first result establishes an estimate).
	Throughput float64 `json:"throughput"`
	// CN is the CommonName of the worker's client certificate when the
	// coordinator runs mutual TLS; empty otherwise.
	CN string `json:"cn,omitempty"`
	// Draining reports that the worker has said goodbye (handed leases
	// back via POST /release) and will take no further leases.
	Draining bool `json:"draining,omitempty"`
}

// Status is the GET /status snapshot: campaign counters, queue depth and
// one row per worker. ilsim-sweep -watch prints it; ilsim-workerd
// -status-poll logs Summary lines periodically.
type Status struct {
	SetFP   string `json:"setFp"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Resumed int    `json:"resumed"`
	// Pending is the queue depth: jobs not yet leased to any worker.
	Pending int `json:"pending"`
	// Leased is the lease backlog: jobs currently held by workers.
	Leased int `json:"leased"`
	// Workers counts every worker ever seen; Slots sums the declared
	// concurrency of workers seen within the last lease TTL that have not
	// said goodbye (the live capacity).
	Workers int `json:"workers"`
	Slots   int `json:"slots"`
	// Leases counts bundle grants so far and MaxBundle the largest bundle
	// granted — together they show how well round-trips amortize.
	Leases    int `json:"leases"`
	MaxBundle int `json:"maxBundle"`
	// ETAMS estimates the time to drain the remaining jobs at the
	// campaign's observed throughput (0 until a rate is established).
	ETAMS int64 `json:"etaMs"`
	// Finished reports that every job is terminal (or the campaign was
	// aborted).
	Finished bool `json:"finished"`
	// Draining counts workers that have said goodbye; their slots are
	// excluded from Slots.
	Draining int `json:"draining,omitempty"`
	// PerWorker is one row per worker ever seen, in coordinator map order
	// (sort before displaying).
	PerWorker []WorkerStatus `json:"perWorker,omitempty"`
}

// Summary renders the one-line form of the snapshot, the shape
// ilsim-workerd -status-poll logs.
func (s Status) Summary() string {
	line := fmt.Sprintf("dist: %d/%d done (%d failed, %d resumed), %d pending, %d leased, %d workers/%d slots",
		s.Done, s.Total, s.Failed, s.Resumed, s.Pending, s.Leased, s.Workers, s.Slots)
	if s.ETAMS > 0 {
		line += fmt.Sprintf(", eta %s", (time.Duration(s.ETAMS) * time.Millisecond).Round(100*time.Millisecond))
	}
	if s.Draining > 0 {
		line += fmt.Sprintf(", %d draining", s.Draining)
	}
	if s.Finished {
		line += ", finished"
	}
	return line
}

// Table renders the multi-line operator view ilsim-sweep -watch prints:
// the Summary plus one row per worker, sorted by name.
func (s Status) Table() string {
	var b strings.Builder
	b.WriteString(s.Summary())
	b.WriteByte('\n')
	if s.Leases > 0 {
		fmt.Fprintf(&b, "dist: %d leases granted, largest bundle %d jobs\n", s.Leases, s.MaxBundle)
	}
	rows := append([]WorkerStatus(nil), s.PerWorker...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, ws := range rows {
		name := ws.Name
		if ws.CN != "" && ws.CN != ws.Name {
			name += " (" + ws.CN + ")"
		}
		fmt.Fprintf(&b, "  %-24s slots %-3d bundle %-3d done %-4d ewma %-8s %.2f jobs/s",
			name, ws.Slots, ws.Held, ws.Done,
			(time.Duration(ws.EWMAMS) * time.Millisecond).Round(time.Millisecond), ws.Throughput)
		if ws.Job != "" {
			fmt.Fprintf(&b, "  on %s", ws.Job)
			if ws.Held > 1 {
				fmt.Fprintf(&b, " (+%d queued)", ws.Held-1)
			}
		}
		if ws.Draining {
			b.WriteString("  DRAINING")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
