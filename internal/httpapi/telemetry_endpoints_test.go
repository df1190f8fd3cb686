package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/platform"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// newTelemetryFixture is newFixture with an enabled metrics registry.
func newTelemetryFixture(t *testing.T) *fixture {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p, true))
	t.Cleanup(srv.Close)
	return &fixture{p: p, srv: srv, nonces: make(map[string]uint64), t: t}
}

func (f *fixture) getRaw(path string) (int, string, string) {
	f.t.Helper()
	resp, err := http.Get(f.srv.URL + path)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestBlobUnknownCID(t *testing.T) {
	f := newFixture(t)
	// Well-formed CID that no blob hashes to: 404, JSON error envelope.
	unknown := strings.Repeat("ab", 32)
	code, _, body := f.getRaw("/v1/blobs/" + unknown)
	if code != http.StatusNotFound {
		t.Fatalf("unknown cid: status=%d body=%s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" {
		t.Fatalf("unknown cid: body=%q err=%v", body, err)
	}
	// Malformed CIDs (wrong length, non-hex) are 400, not 404.
	for _, bad := range []string{"zz", "abcd", strings.Repeat("zz", 32)} {
		if code, _, _ := f.getRaw("/v1/blobs/" + bad); code != http.StatusBadRequest {
			t.Fatalf("cid %q: status=%d", bad, code)
		}
	}
}

func TestSearchMalformedQuery(t *testing.T) {
	f := newFixture(t)
	for _, path := range []string{
		"/v1/search",               // missing q
		"/v1/search?q=%20%09",      // blank q
		"/v1/search?q=treaty&k=0",  // non-positive k
		"/v1/search?q=treaty&k=-3", // negative k
		"/v1/search?q=treaty&k=x",  // non-numeric k
	} {
		code, _, body := f.getRaw(path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status=%d body=%s", path, code, body)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" {
			t.Fatalf("%s: body=%q err=%v", path, body, err)
		}
	}
}

func TestMetricsEmptyRegistry(t *testing.T) {
	// A platform built without Config.Telemetry still serves the
	// endpoints: an empty — but valid — exposition and trace export.
	f := newFixture(t)
	code, ct, body := f.getRaw("/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status=%d", code)
	}
	if ct != telemetry.PrometheusContentType {
		t.Fatalf("metrics content-type=%q", ct)
	}
	if body != "" {
		t.Fatalf("metrics body=%q, want empty", body)
	}
	code, ct, body = f.getRaw("/v1/traces")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("traces: status=%d content-type=%q", code, ct)
	}
	var export struct {
		Capacity int               `json:"capacity"`
		Total    uint64            `json:"total"`
		Spans    []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &export); err != nil {
		t.Fatalf("traces body=%q: %v", body, err)
	}
	if export.Total != 0 || len(export.Spans) != 0 {
		t.Fatalf("traces export=%+v, want empty", export)
	}
}

func TestMetricsExposition(t *testing.T) {
	f := newTelemetryFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	if out := f.submit(alice, "news.publish", payload); !out.Committed {
		t.Fatalf("submit=%+v", out)
	}
	// One extra read so the request counter has a GET route too.
	if code := f.get("/v1/chain", nil); code != http.StatusOK {
		t.Fatalf("chain status=%d", code)
	}

	// One off-chain body, written and read back over HTTP, so the blob
	// store's counters are live too.
	cid, err := f.p.Blobs().PutString("off-chain article body")
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := f.getRaw("/v1/blobs/" + string(cid)); code != http.StatusOK {
		t.Fatalf("blob get status=%d", code)
	}

	code, ct, body := f.getRaw("/v1/metrics")
	if code != http.StatusOK || ct != telemetry.PrometheusContentType {
		t.Fatalf("metrics: status=%d content-type=%q", code, ct)
	}
	for _, want := range []string{
		"# TYPE trustnews_mempool_admitted_total counter",
		"trustnews_mempool_admitted_total 1",
		"trustnews_platform_commits_total 1",
		"trustnews_platform_txs_committed_total 1",
		// Histogram rendering: cumulative buckets plus sum and count.
		`trustnews_platform_commit_seconds_bucket{le="+Inf"} 1`,
		"trustnews_platform_commit_seconds_count 1",
		"trustnews_platform_commit_seconds_sum ",
		// The commit's stages, the views' update among them, and no
		// view error.
		`trustnews_commit_stage_seconds_count{stage="execute"} 1`,
		`trustnews_commit_stage_seconds_count{stage="publish"} 1`,
		"trustnews_platform_view_errors_total 0",
		// Per-route HTTP accounting from earlier requests in this test.
		`trustnews_httpapi_requests_total{route="POST /v1/tx",status="200"} 1`,
		`trustnews_httpapi_request_seconds_count{route="GET /v1/chain"} 1`,
		// Off-chain body stored and read back above.
		"trustnews_blobstore_puts_total 1",
		"trustnews_blobstore_gets_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestTracesExposition(t *testing.T) {
	f := newTelemetryFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	if out := f.submit(alice, "news.publish", payload); !out.Committed {
		t.Fatalf("submit=%+v", out)
	}
	code, ct, body := f.getRaw("/v1/traces")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("traces: status=%d content-type=%q", code, ct)
	}
	var export struct {
		Total uint64               `json:"total"`
		Spans []telemetry.SpanData `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &export); err != nil {
		t.Fatal(err)
	}
	if export.Total == 0 {
		t.Fatal("no spans recorded")
	}
	var commit, child bool
	for _, sp := range export.Spans {
		switch sp.Name {
		case "platform.commit":
			commit = true
		case "engine.execute":
			if sp.Parent != 0 {
				child = true
			}
		}
	}
	if !commit || !child {
		t.Fatalf("spans missing commit=%v parented-child=%v:\n%s", commit, child, body)
	}
}
