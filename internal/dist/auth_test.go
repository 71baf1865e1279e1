package dist

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAuthTokenRequired locks every endpoint behind the shared token:
// wrong or missing credentials get 401 on join, lease, result, heartbeat
// and status alike, a wrong-token worker fails fast instead of retrying,
// and a right-token worker still completes the campaign.
func TestAuthTokenRequired(t *testing.T) {
	jobs := testJobs(t, 1)
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{AuthToken: "s3cret", LongPoll: 100 * time.Millisecond}, jobs)
	waitCampaign(t, c)

	endpoints := []struct{ method, path string }{
		{http.MethodPost, "/join"},
		{http.MethodPost, "/lease"},
		{http.MethodPost, "/result"},
		{http.MethodPost, "/heartbeat"},
		{http.MethodGet, "/status"},
	}
	for _, tok := range []string{"", "wrong"} {
		for _, ep := range endpoints {
			req, err := http.NewRequest(ep.method, "http://"+c.Addr()+ep.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			if tok != "" {
				req.Header.Set("Authorization", "Bearer "+tok)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s with token %q: %d, want 401", ep.method, ep.path, tok, resp.StatusCode)
			}
		}
	}

	// A worker with the wrong token is refused fatally — no retry loop.
	bad := &Worker{Coordinator: c.Addr(), Name: "impostor",
		Client: ClientOptions{AuthToken: "wrong"}, RetryWindow: 30 * time.Second}
	start := time.Now()
	err := bad.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong-token worker: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("wrong-token worker burned %s retrying an unfixable 401", time.Since(start))
	}

	// FetchStatus needs the token too.
	if _, err := FetchStatus(ctx, c.Addr(), ClientOptions{}); err == nil {
		t.Fatal("tokenless FetchStatus succeeded")
	}
	if _, err := FetchStatus(ctx, c.Addr(), ClientOptions{AuthToken: "s3cret"}); err != nil {
		t.Fatalf("authorized FetchStatus: %v", err)
	}

	good := &Worker{Coordinator: c.Addr(), Name: "trusted", Client: ClientOptions{AuthToken: "s3cret"}}
	if err := good.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)
}

// writeSelfSignedCert generates an ephemeral localhost certificate under
// t.TempDir() — nothing real, nothing committed — and returns the PEM
// cert and key paths.
func writeSelfSignedCert(t *testing.T) (certPath, keyPath string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ilsim-dist-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		DNSNames:              []string{"localhost"},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certPath = filepath.Join(dir, "coord.pem")
	keyPath = filepath.Join(dir, "coord.key")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certPath, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certPath, keyPath
}

// TestSelfSignedTLSCampaign runs the whole production TLS path end to end
// over loopback: the coordinator serves its endpoints with a self-signed
// certificate and a token, the worker trusts the cert via TLSCACert, and
// the campaign completes fingerprint-identical to a local run.
func TestSelfSignedTLSCampaign(t *testing.T) {
	certPath, keyPath := writeSelfSignedCert(t)
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{
		TLSCert:   certPath,
		TLSKey:    keyPath,
		AuthToken: "s3cret",
		LongPoll:  100 * time.Millisecond,
	}, jobs)

	// Plain HTTP cannot speak to a TLS coordinator: the connection either
	// fails outright or gets the server's plaintext 400, never a status.
	if resp, err := http.Get("http://" + c.Addr() + "/status"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("plain-HTTP status request succeeded against a TLS coordinator")
		}
	}

	co := ClientOptions{AuthToken: "s3cret", TLSCACert: certPath}
	w := &Worker{Coordinator: c.Addr(), Name: "tls-worker", Slots: 2, Client: co}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	// The status feed rides the same hardened transport.
	st, err := FetchStatus(ctx, c.Addr(), co)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Done != len(jobs) {
		t.Fatalf("status after TLS campaign: %+v", st)
	}
}

// writeClientCert generates an ephemeral self-signed CLIENT certificate
// with the given CommonName — usable both as a worker's keypair and,
// because it is self-signed, as the coordinator's client-CA bundle.
func writeClientCert(t *testing.T, cn string) (certPath, keyPath string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(2),
		Subject:               pkix.Name{CommonName: cn},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certPath = filepath.Join(dir, "client.pem")
	keyPath = filepath.Join(dir, "client.key")
	if err := os.WriteFile(certPath, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certPath, keyPath
}

// TestMutualTLSCampaign runs the mutual-TLS path end to end: the
// coordinator demands client certificates signed by its client CA, a
// worker without one is refused at the handshake, a worker presenting the
// certificate completes the campaign, and the certificate's CN shows up
// against the worker in the status feed.
func TestMutualTLSCampaign(t *testing.T) {
	serverCert, serverKey := writeSelfSignedCert(t)
	clientCert, clientKey := writeClientCert(t, "trusted-worker")
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{
		TLSCert:     serverCert,
		TLSKey:      serverKey,
		TLSClientCA: clientCert, // self-signed: the cert is its own CA
		LongPoll:    100 * time.Millisecond,
	}, jobs)

	// No client certificate: the TLS handshake itself is refused, long
	// before any protocol endpoint.
	bare := &Worker{Coordinator: c.Addr(), Name: "certless",
		Client:      ClientOptions{TLSCACert: serverCert},
		RetryWindow: time.Second}
	if err := bare.Run(ctx); err == nil {
		t.Fatal("certless worker joined a mutual-TLS coordinator")
	}

	co := ClientOptions{TLSCACert: serverCert, TLSCert: clientCert, TLSKey: clientKey}
	w := &Worker{Coordinator: c.Addr(), Name: "mtls-worker", Slots: 2, Client: co}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	// The client certificate's CN is recorded against the worker.
	st, err := FetchStatus(ctx, c.Addr(), co)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ws := range st.PerWorker {
		if ws.Name == "mtls-worker" {
			found = true
			if ws.CN != "trusted-worker" {
				t.Fatalf("worker CN = %q, want trusted-worker", ws.CN)
			}
		}
	}
	if !found {
		t.Fatal("mtls-worker missing from status")
	}
	if !strings.Contains(st.Table(), "trusted-worker") {
		t.Fatalf("status table does not show the certificate CN:\n%s", st.Table())
	}
}

// TestMutualTLSRequiresServerCert: TLSClientCA without a server keypair is
// a configuration error, caught at Start.
func TestMutualTLSRequiresServerCert(t *testing.T) {
	clientCert, _ := writeClientCert(t, "x")
	c := NewCoordinator(Options{Addr: "127.0.0.1:0", TLSClientCA: clientCert})
	if err := c.Start(); err == nil {
		c.Close()
		t.Fatal("Start accepted TLSClientCA without TLSCert/TLSKey")
	}
}

// TestTLSSkipVerify covers the lab escape hatch: no CA file, verification
// off, transport still TLS.
func TestTLSSkipVerify(t *testing.T) {
	certPath, keyPath := writeSelfSignedCert(t)
	jobs := testJobs(t, 1)
	ctx := context.Background()
	c, out := startCampaign(t, ctx, Options{TLSCert: certPath, TLSKey: keyPath, LongPoll: 100 * time.Millisecond}, jobs)

	w := &Worker{Coordinator: c.Addr(), Name: "insecure", Client: ClientOptions{TLSSkipVerify: true}}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if oc := <-out; oc.err != nil || oc.metrics.Failed != 0 {
		t.Fatalf("campaign: %+v, %v", oc.metrics, oc.err)
	}
}

// TestHandlerBehindHTTPTestServer serves the coordinator's handler on an
// httptest TLS server — no certificates on disk at all — and drives a
// worker through it with the server's pre-trusted client, proving the
// protocol is transport-agnostic and the auth middleware wraps the
// exported handler.
func TestHandlerBehindHTTPTestServer(t *testing.T) {
	jobs := testJobs(t, 2)
	want := localFingerprints(t, jobs)
	c := NewCoordinator(Options{AuthToken: "s3cret", LongPoll: 100 * time.Millisecond})
	ts := httptest.NewTLSServer(c.Handler())
	defer ts.Close()

	ctx := context.Background()
	out := make(chan campaignOutcome, 1)
	go func() {
		results, metrics, err := c.RunContext(ctx, jobs)
		out <- campaignOutcome{results, metrics, err}
	}()
	t.Cleanup(func() { c.Close() })

	// The middleware guards the httptest transport too.
	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless status via httptest: %d, want 401", resp.StatusCode)
	}

	co := ClientOptions{AuthToken: "s3cret", HTTPClient: ts.Client()}
	w := &Worker{Coordinator: ts.URL, Name: "httptest-worker", Slots: 2, Client: co}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	checkFingerprints(t, oc.results, want)

	if st, err := FetchStatus(ctx, ts.URL, co); err != nil || !st.Finished {
		t.Fatalf("FetchStatus via httptest: %+v, %v", st, err)
	}
}
