package httpapi

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/aidetect"
	"repro/internal/commitbus"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/light"
	"repro/internal/platform"
	"repro/internal/search"
	"repro/internal/supplychain"
)

const factText = "the parliament ratified the border treaty according to the official record"

type fixture struct {
	p      *platform.Platform
	srv    *httptest.Server
	nonces map[string]uint64
	t      *testing.T
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.NewGenerator(21).Generate(300, 300)
	if err := p.TrainClassifier(aidetect.NewNaiveBayes(), c.Statements); err != nil {
		t.Fatal(err)
	}
	if err := p.SeedFact("f1", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p, true))
	t.Cleanup(srv.Close)
	return &fixture{p: p, srv: srv, nonces: make(map[string]uint64), t: t}
}

// submit signs a tx for kp and POSTs it, returning the response.
func (f *fixture) submit(kp *keys.KeyPair, kind string, payload []byte) submitResponse {
	f.t.Helper()
	key := kp.Address().String()
	nonce := f.p.Chain().NextNonce(key)
	if pending := f.nonces[key]; pending > nonce {
		nonce = pending
	}
	tx, err := ledger.NewTx(kp, nonce, kind, payload)
	if err != nil {
		f.t.Fatal(err)
	}
	f.nonces[key] = nonce + 1
	body, _ := json.Marshal(submitRequest{TxHex: hex.EncodeToString(tx.Encode())})
	resp, err := http.Post(f.srv.URL+"/v1/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		f.t.Fatalf("submit %s: status %d: %s", kind, resp.StatusCode, eb.Error)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		f.t.Fatal(err)
	}
	return out
}

func (f *fixture) get(path string, v any) int {
	f.t.Helper()
	resp, err := http.Get(f.srv.URL + path)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			f.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestSubmitAndQueryItem(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	out := f.submit(alice, "news.publish", payload)
	if !out.Committed || !out.OK {
		t.Fatalf("submit=%+v", out)
	}
	var item supplychain.Item
	if code := f.get("/v1/items/n1", &item); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if item.Creator != alice.Address().String() {
		t.Fatalf("item=%+v", item)
	}
}

func TestSubmitRejectsGarbage(t *testing.T) {
	f := newFixture(t)
	for _, body := range []string{`{"txHex":"zz"}`, `{"txHex":"deadbeef"}`, `not json`} {
		resp, err := http.Post(f.srv.URL+"/v1/tx", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("body %q accepted", body)
		}
	}
}

func TestSubmitSurfacesContractFailure(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	// Publishing with a missing parent fails in-contract; HTTP still 200
	// with the receipt error surfaced.
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, "text", []string{"ghost"}, corpus.OpVerbatim)
	out := f.submit(alice, "news.publish", payload)
	if out.OK || out.Err == "" {
		t.Fatalf("out=%+v", out)
	}
}

func TestChainEndpoint(t *testing.T) {
	f := newFixture(t)
	var ch chainResponse
	if code := f.get("/v1/chain", &ch); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if ch.Height == 0 || ch.Facts != 1 || ch.FactRoot == "" {
		t.Fatalf("chain=%+v", ch)
	}
}

func TestRankAndTraceEndpoints(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	f.submit(alice, "news.publish", payload)

	var rank platform.ItemRank
	if code := f.get("/v1/items/n1/rank", &rank); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if !rank.Factual || rank.Trace.Score < 0.99 {
		t.Fatalf("rank=%+v", rank)
	}
	var tr supplychain.TraceResult
	if code := f.get("/v1/items/n1/trace", &tr); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if !tr.Rooted {
		t.Fatalf("trace=%+v", tr)
	}
	if code := f.get("/v1/items/ghost/rank", nil); code != http.StatusNotFound {
		t.Fatalf("ghost rank status=%d", code)
	}
}

func TestRankMechanismParameter(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	f.submit(alice, "news.publish", payload)
	var rank platform.ItemRank
	if code := f.get("/v1/items/n1/rank?mechanism=trace", &rank); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if rank.Mechanism != "trace" {
		t.Fatalf("mechanism=%s", rank.Mechanism)
	}
	// Majority with no votes has no signal: 409.
	if code := f.get("/v1/items/n1/rank?mechanism=majority", nil); code != http.StatusConflict {
		t.Fatalf("status=%d", code)
	}
}

// A state page that cannot be read is a server error, not a missing item:
// with the sealed page holding an item damaged on disk, the item, its
// trace and its rank answer 500, while an unknown id still answers 404.
func TestUnreadableStatePageIsServerError(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := platform.Open(dir, platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	srv := httptest.NewServer(New(p, true))
	defer srv.Close()
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	author := p.NewActor("author")
	if err := author.PublishNews("victim", corpus.TopicPolitics, factText, nil, ""); err != nil {
		t.Fatal(err)
	}
	// Large inline items fill the state's memtable (a MiB) until it seals.
	filler := strings.Repeat("a long inline statement that fills the memtable ", 1300)
	for i := 0; p.Engine().StateStats().Segments == 0; i++ {
		payload, err := supplychain.PublishPayload("filler-"+strconv.Itoa(i), corpus.TopicScience, filler, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := author.MustExec("news.publish", payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/v1/items/victim", "/v1/items/victim/trace", "/v1/items/victim/rank"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("GET %s = %d before the damage", path, code)
		}
	}
	// The item's entry starts with its key's length: make it a length no
	// page can hold, so the page no longer decodes.
	key := "news/item/victim"
	path := filepath.Join(dir, "state.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, append([]byte{byte(len(key))}, key...))
	if at < 0 {
		t.Fatalf("%s holds no entry for %s", path, key)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/items/victim", "/v1/items/victim/trace", "/v1/items/victim/rank"} {
		if code := get(path); code != http.StatusInternalServerError {
			t.Fatalf("GET %s = %d with its state page unreadable, want 500", path, code)
		}
	}
	for _, path := range []string{"/v1/items/ghost", "/v1/items/ghost/trace", "/v1/items/ghost/rank"} {
		if code := get(path); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
}

func TestFactsEndpoint(t *testing.T) {
	f := newFixture(t)
	var facts []map[string]any
	if code := f.get("/v1/facts", &facts); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if len(facts) != 1 {
		t.Fatalf("facts=%v", facts)
	}
}

func TestExpertsEndpoint(t *testing.T) {
	f := newFixture(t)
	expert := keys.FromSeed([]byte("expert"))
	for i := 0; i < 3; i++ {
		payload, _ := supplychain.PublishPayload("e"+strconv.Itoa(i), corpus.TopicPolitics, factText, nil, "")
		f.submit(expert, "news.publish", payload)
	}
	var experts []supplychain.ExpertScore
	if code := f.get("/v1/experts?topic=politics&k=3", &experts); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if len(experts) == 0 || experts[0].Account != expert.Address().String() {
		t.Fatalf("experts=%+v", experts)
	}
	if code := f.get("/v1/experts", nil); code != http.StatusBadRequest {
		t.Fatalf("missing topic status=%d", code)
	}
	if code := f.get("/v1/experts?topic=politics&k=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad k status=%d", code)
	}
}

func TestAccountEndpoint(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	if err := f.p.MintTo(alice.Address(), 77); err != nil {
		t.Fatal(err)
	}
	var acct accountResponse
	if code := f.get("/v1/accounts/"+alice.Address().String(), &acct); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if acct.Balance != 77 || acct.Reputation != 1.0 {
		t.Fatalf("acct=%+v", acct)
	}
	if code := f.get("/v1/accounts/nothex", nil); code != http.StatusBadRequest {
		t.Fatalf("bad addr status=%d", code)
	}
}

func TestNonceReplayRejected(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	tx, _ := ledger.NewTx(alice, 0, "news.publish", payload)
	body, _ := json.Marshal(submitRequest{TxHex: hex.EncodeToString(tx.Encode())})
	post := func() int {
		resp, err := http.Post(f.srv.URL+"/v1/tx", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("first submit status=%d", code)
	}
	if code := post(); code == http.StatusOK {
		t.Fatal("replayed tx accepted")
	}
}

func BenchmarkSubmitHTTP(b *testing.B) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(New(p, true))
	defer srv.Close()
	alice := keys.FromSeed([]byte("alice"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, _ := supplychain.PublishPayload(fmt.Sprintf("n%d", i), corpus.TopicPolitics, factText, nil, "")
		tx, _ := ledger.NewTx(alice, uint64(i), "news.publish", payload)
		body, _ := json.Marshal(submitRequest{TxHex: hex.EncodeToString(tx.Encode())})
		resp, err := http.Post(srv.URL+"/v1/tx", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

func TestProofEndpointVerifiesWithLightClient(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	out := f.submit(alice, "news.publish", payload)

	var pr proofResponse
	if code := f.get("/v1/proofs/"+out.TxID, &pr); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	raw, err := hex.DecodeString(pr.TxHex)
	if err != nil {
		t.Fatal(err)
	}
	// An untrusting reader: sync headers, verify the served proof.
	lc := light.NewClient()
	if err := lc.SyncFrom(f.p.Chain()); err != nil {
		t.Fatal(err)
	}
	tx, err := lc.Verify(light.Proof{Header: pr.Header, TxRaw: raw, Merkle: pr.Merkle})
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID().String() != out.TxID {
		t.Fatal("proved a different tx")
	}
	// Malformed and unknown ids.
	if code := f.get("/v1/proofs/zz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id status=%d", code)
	}
	unknown := ledger.TxID{0xaa}
	if code := f.get("/v1/proofs/"+unknown.String(), nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status=%d", code)
	}
}

func TestBlobAndSearchEndpoints(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	// Publish with the body off-chain: store it, commit only the CID.
	cid, err := f.p.Blobs().PutString(factText)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := supplychain.PublishRefPayload("n1", corpus.TopicPolitics, string(cid), len(factText), nil, "")
	f.submit(alice, "news.publish", payload)

	// The item record carries the CID, hydrated for readers, and the blob
	// endpoint serves the raw verified bytes.
	var item supplychain.Item
	if code := f.get("/v1/items/n1", &item); code != http.StatusOK {
		t.Fatalf("item status=%d", code)
	}
	if item.CID != string(cid) || item.Text != factText {
		t.Fatalf("item not hydrated: %+v", item)
	}
	resp, err := http.Get(f.srv.URL + "/v1/blobs/" + item.CID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != factText {
		t.Fatalf("blob status=%d body=%q", resp.StatusCode, raw)
	}

	// Search finds the committed article (indexing is async: flush so
	// the query is deterministic).
	f.p.FlushSearch()
	var page search.Page
	if code := f.get("/v1/search?q=parliament+treaty&k=3", &page); code != http.StatusOK {
		t.Fatalf("search status=%d", code)
	}
	if page.Total == 0 || len(page.Results) == 0 || page.Results[0].ID != "n1" {
		t.Fatalf("search page=%+v", page)
	}
	// Explicit pagination.
	if code := f.get("/v1/search?q=parliament+treaty&limit=1&offset=0", &page); code != http.StatusOK {
		t.Fatalf("paginated search status=%d", code)
	}
	if len(page.Results) != 1 || page.Results[0].ID != "n1" {
		t.Fatalf("paginated page=%+v", page)
	}

	// Malformed and missing inputs.
	if code := f.get("/v1/blobs/nothex", nil); code != http.StatusBadRequest {
		t.Fatalf("bad cid status=%d", code)
	}
	ghost := strings.Repeat("ab", 32)
	if code := f.get("/v1/blobs/"+ghost, nil); code != http.StatusNotFound {
		t.Fatalf("unknown cid status=%d", code)
	}
	if code := f.get("/v1/search", nil); code != http.StatusBadRequest {
		t.Fatalf("missing q status=%d", code)
	}
	if code := f.get("/v1/search?q=treaty&k=0", nil); code != http.StatusBadRequest {
		t.Fatalf("bad k status=%d", code)
	}
}

func TestCommitBusEndpoint(t *testing.T) {
	f := newFixture(t)
	alice := keys.FromSeed([]byte("alice"))
	payload, _ := supplychain.PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	f.submit(alice, "news.publish", payload)

	var stats []commitbus.SubscriberStats
	if code := f.get("/v1/commitbus", &stats); code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if len(stats) == 0 {
		t.Fatal("no subscribers reported")
	}
	for _, s := range stats {
		if s.Name == "" {
			t.Fatalf("unnamed subscriber: %+v", s)
		}
		if s.Delivered == 0 || s.Lag != 0 || s.Errors != 0 {
			t.Fatalf("subscriber %s out of sync: %+v", s.Name, s)
		}
	}
}

func TestChainEndpointReportsCheckpointHeight(t *testing.T) {
	p, closeFn, err := platform.Open(t.TempDir(), platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	if err := p.SeedFact("f1", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p, true))
	defer srv.Close()

	var ch chainResponse
	resp, err := http.Get(srv.URL + "/v1/chain")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ch.CheckpointHeight != 0 {
		t.Fatalf("fresh node checkpointHeight=%d", ch.CheckpointHeight)
	}

	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/chain")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ch.CheckpointHeight == 0 || ch.CheckpointHeight != ch.Height {
		t.Fatalf("checkpointHeight=%d height=%d", ch.CheckpointHeight, ch.Height)
	}
}

func TestIngestEndpointsAndHealthzFields(t *testing.T) {
	f := newFixture(t)
	// Without a pipeline the ingest endpoints refuse and healthz omits
	// the queue fields.
	if code := f.get("/v1/ingest", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("no-pipeline stats status=%d", code)
	}
	q, err := ingest.NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := ingest.NewPipeline(f.p, q, 1)
	pl.Start()
	t.Cleanup(pl.Stop)
	if srv, ok := f.srv.Config.Handler.(*Server); ok {
		srv.SetIngest(pl)
	} else {
		t.Fatal("fixture handler is not *Server")
	}

	body := []byte(`{"source":"wire","topic":"politics","text":"<p>fresh wire copy about the harbor expansion</p>"}`)
	resp, err := http.Post(f.srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status=%d body=%s", resp.StatusCode, raw)
	}

	// Drive commits until the pipeline settles the item.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := f.p.CommitAll(); err != nil {
			t.Fatal(err)
		}
		if st := pl.Stats(); st.Published == 1 && st.Queue.Depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest never settled: %+v", pl.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var stats ingest.PipelineStats
	if code := f.get("/v1/ingest", &stats); code != http.StatusOK {
		t.Fatalf("stats status=%d", code)
	}
	if stats.Published != 1 || stats.Queue.Acked != 1 {
		t.Fatalf("stats=%+v", stats)
	}
	var hz healthzResponse
	if code := f.get("/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status=%d", code)
	}
	if hz.IngestQueueDepth == nil || *hz.IngestQueueDepth != 0 || hz.IngestDead == nil {
		t.Fatalf("healthz ingest fields = %+v", hz)
	}

	// Missing text is a client error; an empty-body POST is too.
	resp2, err := http.Post(f.srv.URL+"/v1/ingest", "application/json", strings.NewReader(`{"source":"wire"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-text status=%d", resp2.StatusCode)
	}
}
