package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"
)

// netFault is one kind of network misbehaviour faultTransport injects.
type netFault int

const (
	faultDrop     netFault = iota // the request never reaches the coordinator
	faultDelay                    // the request is held back before sending
	faultDup                      // the request is delivered twice
	faultTruncate                 // the response body is cut in half
	faultCorrupt                  // one response-body byte becomes a control character
)

// faultRule fires its fault on every Every-th request the transport sees;
// the seed picks each rule's phase within that period.
type faultRule struct {
	Every int
	Fault netFault
}

// faultTransport is a seeded fault-injecting http.RoundTripper between a
// worker and its coordinator. Requests are dropped, delayed or duplicated;
// responses are truncated or corrupted (never requests: a mangled /result
// body is an integrity failure, not a transport fault); and during the
// partition window every request fails. The schedule depends only on the
// seed and the request count, and the counters prove faults fired.
type faultTransport struct {
	inner      http.RoundTripper
	rules      []faultRule
	partAfter  time.Duration
	partFor    time.Duration
	mu         sync.Mutex
	rng        *rand.Rand
	phase      []int
	started    time.Time
	requests   int
	fired      map[netFault]int
	partitions int
}

func newFaultTransport(seed int64, rules []faultRule, partAfter, partFor time.Duration) *faultTransport {
	t := &faultTransport{
		inner: http.DefaultTransport, rules: rules,
		partAfter: partAfter, partFor: partFor,
		rng: rand.New(rand.NewSource(seed)), fired: make(map[netFault]int),
	}
	for _, r := range rules {
		t.phase = append(t.phase, t.rng.Intn(r.Every))
	}
	return t
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	if t.started.IsZero() {
		t.started = time.Now()
	}
	n := t.requests
	t.requests++
	if since := time.Since(t.started); t.partFor > 0 && since >= t.partAfter && since < t.partAfter+t.partFor {
		t.partitions++
		t.mu.Unlock()
		return nil, fmt.Errorf("fault: %s partitioned", req.URL.Path)
	}
	fault, fired := netFault(0), false
	for i, r := range t.rules {
		if n%r.Every == t.phase[i] {
			fault, fired = r.Fault, true
			break
		}
	}
	at := t.rng.Float64() // corrupt position, drawn under the lock
	if fired {
		t.fired[fault]++
	}
	t.mu.Unlock()

	if !fired {
		return t.inner.RoundTrip(req)
	}
	switch fault {
	case faultDrop:
		return nil, fmt.Errorf("fault: %s dropped", req.URL.Path)
	case faultDelay:
		select {
		case <-time.After(5 * time.Millisecond):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.inner.RoundTrip(req)
	case faultDup:
		if req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				dup := req.Clone(req.Context())
				dup.Body = body
				if resp, err := t.inner.RoundTrip(dup); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
		return t.inner.RoundTrip(req)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		if fault == faultTruncate {
			body = body[:len(body)/2]
		} else {
			body[int(at*float64(len(body)))] = 0x01
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// counts snapshots the request and per-fault counters.
func (t *faultTransport) counts() (requests, partitions int, fired map[netFault]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fired = make(map[netFault]int, len(t.fired))
	for k, v := range t.fired {
		fired[k] = v
	}
	return t.requests, t.partitions, fired
}

// TestChaosCampaignMatchesLocal runs a full campaign with every worker's
// coordinator connection behind a fault-injecting transport — dropped,
// delayed and duplicated requests, corrupted and truncated responses, and
// a timed partition — and the result set must still be byte-identical to
// a local run: retries, lease-expiry reassignment and first-result-wins
// absorb every fault. The transports' counters prove the faults fired.
func TestChaosCampaignMatchesLocal(t *testing.T) {
	jobs := testJobs(t, 4)
	want := localFingerprints(t, jobs)
	// A bound on the whole campaign: a worker that gives up leaves jobs
	// nobody finishes, and the test must fail rather than wait for them.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	c, out := startCampaign(t, ctx, Options{
		LongPoll: 100 * time.Millisecond,
		LeaseTTL: 500 * time.Millisecond,
		Logf:     t.Logf,
	}, jobs)

	rules := []faultRule{
		{Every: 6, Fault: faultDrop},
		{Every: 7, Fault: faultCorrupt},
		{Every: 9, Fault: faultDup},
		{Every: 11, Fault: faultTruncate},
		{Every: 4, Fault: faultDelay},
	}
	var transports []*faultTransport
	var wg sync.WaitGroup
	for i, name := range []string{"c1", "c2"} {
		tr := newFaultTransport(int64(7+i), rules, 30*time.Millisecond, 150*time.Millisecond)
		transports = append(transports, tr)
		w := &Worker{
			Coordinator: "http://" + c.Addr(), Name: name, Slots: 2,
			RetryWindow: 30 * time.Second,
			Client:      ClientOptions{HTTPClient: &http.Client{Transport: tr}},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
				cancel()
			}
		}()
	}

	wg.Wait()
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
	if oc.metrics.Failed != 0 {
		t.Fatalf("metrics under injected faults: %+v", oc.metrics)
	}

	requests, partitions, fired := 0, 0, map[netFault]int{}
	for _, tr := range transports {
		r, p, f := tr.counts()
		requests += r
		partitions += p
		for k, v := range f {
			fired[k] += v
		}
	}
	t.Logf("fault totals: %d requests, %d partitioned, fired %v", requests, partitions, fired)
	if requests < 12 {
		t.Fatalf("only %d requests crossed the fault transports; the campaign barely exercised them", requests)
	}
	// Delay fires every 4th request and Drop every 6th, so with a dozen
	// requests both must have fired; faults overall must be plural.
	if fired[faultDelay] == 0 || fired[faultDrop] == 0 {
		t.Fatalf("expected periodic delay and drop faults to fire: %v", fired)
	}
	if faults := fired[faultDrop] + fired[faultDup] + fired[faultTruncate] + fired[faultCorrupt] + partitions; faults < 3 {
		t.Fatalf("only %d faults injected: %v, %d partitioned", faults, fired, partitions)
	}
}

// TestChaosCampaignSeededReplay runs the same small campaign twice under
// the same fault seed: both runs must complete with fingerprints identical
// to a local run — faults may reorder recovery work but never change
// results.
func TestChaosCampaignSeededReplay(t *testing.T) {
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)
	rules := []faultRule{
		{Every: 5, Fault: faultCorrupt},
		{Every: 3, Fault: faultDelay},
	}
	for round := 0; round < 2; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		c, out := startCampaign(t, ctx, Options{
			LongPoll: 50 * time.Millisecond,
			LeaseTTL: 400 * time.Millisecond,
		}, jobs)
		tr := newFaultTransport(11, rules, 0, 0)
		w := &Worker{
			Coordinator: "http://" + c.Addr(), Name: "replay", Slots: 1,
			RetryWindow: 30 * time.Second,
			Client:      ClientOptions{HTTPClient: &http.Client{Transport: tr}},
		}
		if err := w.Run(ctx); err != nil {
			cancel()
			t.Fatalf("round %d worker: %v", round, err)
		}
		oc := <-out
		if oc.err != nil {
			t.Fatalf("round %d: %v", round, oc.err)
		}
		checkFingerprints(t, oc.results, want)
		if _, _, fired := tr.counts(); fired[faultCorrupt] == 0 {
			t.Fatalf("round %d: no response was corrupted: %v", round, fired)
		}
	}
}
