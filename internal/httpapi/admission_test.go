package httpapi

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// TestSubmitStatusMapping is the table test for the capacity-error
// contract: every capacity condition maps to 429 (retryable), every
// client mistake to 422.
func TestSubmitStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"mempool full", ledger.ErrMempoolFull, http.StatusTooManyRequests},
		{"wrapped mempool full", fmt.Errorf("node: %w", ledger.ErrMempoolFull), http.StatusTooManyRequests},
		{"admission shed", admission.ErrOverCapacity, http.StatusTooManyRequests},
		{"wrapped admission shed", fmt.Errorf("gate: %w", admission.ErrOverCapacity), http.StatusTooManyRequests},
		{"duplicate tx", ledger.ErrDuplicateTx, http.StatusUnprocessableEntity},
		{"stale nonce", ledger.ErrStaleNonce, http.StatusUnprocessableEntity},
		{"payload too large", ledger.ErrTxPayloadTooLarge, http.StatusUnprocessableEntity},
		{"generic failure", errors.New("signature verification failed"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := submitStatus(tc.err); got != tc.want {
				t.Fatalf("submitStatus(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestMempoolFullOverHTTP drives the typed mempool-full error through
// the real endpoint: a one-slot pool accepts the first transaction and
// answers 429 + Retry-After for the second.
func TestMempoolFullOverHTTP(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.MempoolCapacity = 1
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p, false)) // no auto-commit: the pool stays full
	t.Cleanup(srv.Close)

	alice := keys.FromSeed([]byte("alice"))
	post := func(nonce uint64) *http.Response {
		payload, err := supplychain.PublishPayload(fmt.Sprintf("full-%d", nonce), corpus.TopicPolitics, "body", nil, "")
		if err != nil {
			t.Fatal(err)
		}
		tx, err := ledger.NewTx(alice, nonce, "news.publish", payload)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(submitRequest{TxHex: hex.EncodeToString(tx.Encode())})
		resp, err := http.Post(srv.URL+"/v1/tx", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first tx: status %d", resp.StatusCode)
	}
	resp = post(1)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pool-full tx: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "mempool full") {
		t.Fatalf("error body %q does not name the condition", eb.Error)
	}
}

// admissionFixture boots a platform with admission control and
// telemetry enabled behind a test server.
func admissionFixture(t *testing.T, acfg *admission.Config) (*platform.Platform, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	cfg := platform.DefaultConfig()
	reg := telemetry.New()
	cfg.Telemetry = reg
	cfg.Admission = acfg
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p, true))
	t.Cleanup(srv.Close)
	return p, srv, reg
}

// TestHealthzReportsState checks the readiness endpoint's fields for a
// standalone node with pending work.
func TestHealthzReportsState(t *testing.T) {
	cfg := platform.DefaultConfig()
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p, false))
	t.Cleanup(srv.Close)

	fetch := func() healthzResponse {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		var hz healthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz
	}
	hz := fetch()
	if !hz.Ready || hz.Consensus != "standalone" || hz.Height != 0 || hz.MempoolDepth != 0 || hz.PeersConnected != nil {
		t.Fatalf("fresh node healthz = %+v", hz)
	}
	// A pending (uncommitted) tx shows up as mempool depth.
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("hz-1", corpus.TopicPolitics, "body", nil, "")
	tx, err := ledger.NewTx(alice, 0, "news.publish", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(tx); err != nil {
		t.Fatal(err)
	}
	if hz := fetch(); hz.MempoolDepth != 1 {
		t.Fatalf("healthz after pending tx = %+v", hz)
	}
	if err := p.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if hz := fetch(); hz.MempoolDepth != 0 || hz.Height != 1 {
		t.Fatalf("healthz after commit = %+v", hz)
	}
}

// A cluster node's healthz carries its link count.
func TestHealthzReportsPeersConnected(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	api := New(p, false)
	api.SetPeersConnected(func() int { return 3 })
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.PeersConnected == nil || *hz.PeersConnected != 3 {
		t.Fatalf("healthz peersConnected = %v, want 3", hz.PeersConnected)
	}
}

// TestBlobUploadRoundTrip publishes a body via POST /v1/blobs and reads
// it back by CID — the remote off-chain publishing path.
func TestBlobUploadRoundTrip(t *testing.T) {
	_, srv, _ := admissionFixture(t, admission.DefaultConfig())
	body := strings.Repeat("officials confirmed the reservoir level today. ", 40)
	resp, err := http.Post(srv.URL+"/v1/blobs", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var put blobPutResponse
	if err := json.NewDecoder(resp.Body).Decode(&put); err != nil {
		t.Fatal(err)
	}
	if put.Size != len(body) || put.CID == "" {
		t.Fatalf("upload response %+v", put)
	}
	got, err := http.Get(srv.URL + "/v1/blobs/" + put.CID)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	raw, err := io.ReadAll(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusOK || string(raw) != body {
		t.Fatalf("read back: status %d, %d bytes", got.StatusCode, len(raw))
	}
	// Empty upload is a client error, not a capacity one.
	resp2, err := http.Post(srv.URL+"/v1/blobs", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty upload: status %d, want 400", resp2.StatusCode)
	}
}
