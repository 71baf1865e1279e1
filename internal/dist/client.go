package dist

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// ClientOptions is the transport side of the coordinator's hardening
// knobs, shared by workers and status clients: the bearer token matching
// Options.AuthToken, and how to trust a TLS coordinator. Setting any TLS
// field makes bare host:port addresses dial https instead of http.
type ClientOptions struct {
	// AuthToken is sent as `Authorization: Bearer <token>` on every
	// request; required when the coordinator sets Options.AuthToken.
	AuthToken string
	// TLSCACert is a PEM file whose certificates are trusted in place of
	// the system roots — the way a worker trusts a self-signed
	// coordinator certificate.
	TLSCACert string
	// TLSSkipVerify disables server-certificate verification. Test and
	// lab use only: it keeps the transport encrypted but not
	// authenticated.
	TLSSkipVerify bool
	// TLSCert and TLSKey are a PEM client-certificate pair presented to
	// a mutual-TLS coordinator (Options.TLSClientCA); setting them also
	// makes bare addresses dial https.
	TLSCert string
	TLSKey  string
	// HTTPClient overrides the constructed client entirely (tests,
	// custom transports). The TLS fields are ignored when set.
	HTTPClient *http.Client
}

// useTLS reports whether addresses without an explicit scheme should be
// dialed over https. Callers supplying their own HTTPClient pass a
// scheme-qualified URL instead.
func (co ClientOptions) useTLS() bool {
	return co.TLSCACert != "" || co.TLSSkipVerify || (co.TLSCert != "" && co.TLSKey != "")
}

// baseURL normalizes a coordinator address into a scheme-qualified base
// URL with no trailing slash.
func (co ClientOptions) baseURL(addr string) string {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		scheme := "http"
		if co.useTLS() {
			scheme = "https"
		}
		base = scheme + "://" + base
	}
	return base
}

// client builds the HTTP client the options describe.
func (co ClientOptions) client() (*http.Client, error) {
	if co.HTTPClient != nil {
		return co.HTTPClient, nil
	}
	client := &http.Client{}
	if co.useTLS() {
		cfg := &tls.Config{MinVersion: tls.VersionTLS12}
		if co.TLSSkipVerify {
			cfg.InsecureSkipVerify = true
		}
		if co.TLSCACert != "" {
			pem, err := os.ReadFile(co.TLSCACert)
			if err != nil {
				return nil, fmt.Errorf("dist: read TLS CA cert: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				return nil, fmt.Errorf("dist: no certificates in %s", co.TLSCACert)
			}
			cfg.RootCAs = pool
		}
		if co.TLSCert != "" || co.TLSKey != "" {
			cert, err := tls.LoadX509KeyPair(co.TLSCert, co.TLSKey)
			if err != nil {
				return nil, fmt.Errorf("dist: load client TLS keypair: %w", err)
			}
			cfg.Certificates = []tls.Certificate{cert}
		}
		client.Transport = &http.Transport{TLSClientConfig: cfg}
	}
	return client, nil
}

// authorize attaches the bearer token, if any.
func (co ClientOptions) authorize(req *http.Request) {
	if co.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+co.AuthToken)
	}
}

// FetchStatus retrieves one GET /status snapshot from the coordinator at
// addr (host:port, or a full http(s):// base URL) — the feed behind
// ilsim-sweep -watch and ilsim-workerd -status-poll. A refusal comes back
// as an error IsFatal recognizes when retrying cannot fix it (a wrong
// token, a refused certificate); 503 before the campaign installs and
// transport failures are retryable.
func FetchStatus(ctx context.Context, addr string, co ClientOptions) (Status, error) {
	client, err := co.client()
	if err != nil {
		return Status{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, co.baseURL(addr)+"/status", nil)
	if err != nil {
		return Status{}, err
	}
	co.authorize(req)
	resp, err := client.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, statusError(resp)
	}
	var s Status
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return Status{}, fmt.Errorf("dist: status from %s: decode: %w", addr, err)
	}
	return s, nil
}
