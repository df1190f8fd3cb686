// Package httpapi exposes a trusting-news platform node over JSON/HTTP —
// the integration surface a real deployment would offer journalists,
// fact-checking tools and reader apps ("this platform will gather
// blockchain traced data and AI tools that can provide pointers to the
// original data sources", §I).
//
// The API is deliberately thin: clients sign transactions locally (keys
// never leave the client) and POST the encoded bytes; reads are served
// from the node's indexes. Endpoints:
//
//	POST /v1/tx                submit a signed, hex-encoded transaction
//	GET  /v1/healthz           readiness: height, mempool depth, consensus mode
//	GET  /v1/chain             chain head summary (incl. checkpoint height)
//	GET  /v1/items/{id}        one news item
//	GET  /v1/items/{id}/rank   combined ranking with component breakdown
//	GET  /v1/items/{id}/trace  supply-chain trace (503 naming ErrBodyUnavailable when a body it needs is on another node; rank likewise)
//	GET  /v1/facts             the factual database listing
//	GET  /v1/experts?topic=t&k=5
//	GET  /v1/accounts/{addr}   identity + balance + reputation
//	GET  /v1/proofs/{txid}     light-client Merkle inclusion proof
//	GET  /v1/blobs/{cid}       raw off-chain article body (verified)
//	POST /v1/blobs             store an article body off-chain, returns {cid,size}
//	GET  /v1/search?q=&limit=&offset=  BM25-ranked, paginated full-text search
//	POST /v1/ingest            enqueue an article into the ingestion pipeline
//	GET  /v1/ingest            ingestion pipeline + queue statistics
//	GET  /v1/metrics           Prometheus text exposition of the registry
//	GET  /v1/traces            JSON export of retained spans
//
// Overload behaviour: when the platform carries an admission controller
// (platform.Config.Admission), requests the node cannot take on — the
// server-wide edge gate's queue standing above its delay target, a full
// or slow mempool-admission queue, a saturated blob path — are refused up
// front with HTTP 429 and a Retry-After header rather than queued without
// bound. The typed mempool-full error maps to 429 the same way, so clients
// see one uniform "back off and retry" signal for every capacity condition.
// /v1/healthz and /v1/metrics bypass the edge gate: an overloaded node
// must stay observable to operators and load balancers.
package httpapi

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/identity"
	"repro/internal/ingest"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/light"
	"repro/internal/merkle"
	"repro/internal/platform"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// Server is the HTTP gateway over one platform node.
type Server struct {
	p   *platform.Platform
	mux *http.ServeMux
	// AutoCommit mines a block after every accepted transaction, which
	// gives the single-node deployment synchronous semantics. Replicated
	// deployments leave it off and let consensus drive commits.
	AutoCommit bool

	// admit is the platform's admission controller (nil admits all).
	admit *admission.Controller

	// pipeline, when set (SetIngest), backs the /v1/ingest endpoints and
	// the healthz ingest fields. Nil on nodes without an ingest pipeline.
	pipeline *ingest.Pipeline

	// peersConnected, when set (SetPeersConnected), backs the healthz
	// field of that name. Nil on standalone nodes.
	peersConnected func() int

	// Per-route accounting, labeled by the ServeMux pattern so the
	// cardinality is bounded by the route table. Nil when the platform
	// has no telemetry registry.
	tmReq *telemetry.CounterVec
	tmLat *telemetry.HistogramVec
}

// New creates the gateway.
func New(p *platform.Platform, autoCommit bool) *Server {
	s := &Server{p: p, AutoCommit: autoCommit, admit: p.Admission()}
	reg := p.Telemetry()
	s.tmReq = reg.CounterVec("trustnews_httpapi_requests_total", "HTTP requests served, by route pattern and status code.", "route", "status")
	s.tmLat = reg.HistogramVec("trustnews_httpapi_request_seconds", "HTTP request handling time, by route pattern.", nil, "route")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tx", s.handleSubmitTx)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/chain", s.handleChain)
	mux.HandleFunc("GET /v1/blocks/{height}", s.handleBlock)
	mux.HandleFunc("GET /v1/items/{id}", s.handleItem)
	mux.HandleFunc("GET /v1/items/{id}/rank", s.handleRank)
	mux.HandleFunc("GET /v1/items/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/facts", s.handleFacts)
	mux.HandleFunc("GET /v1/experts", s.handleExperts)
	mux.HandleFunc("GET /v1/accounts/{addr}", s.handleAccount)
	mux.HandleFunc("GET /v1/proofs/{txid}", s.handleProof)
	mux.HandleFunc("GET /v1/blobs/{cid}", s.handleBlob)
	mux.HandleFunc("POST /v1/blobs", s.handleBlobPut)
	mux.HandleFunc("GET /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/ingest", s.handleIngestStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux = mux
	return s
}

// SetIngest attaches an ingestion pipeline: POST /v1/ingest enqueues
// through it and /v1/healthz gains queue-depth and indexer-lag fields.
func (s *Server) SetIngest(pl *ingest.Pipeline) { s.pipeline = pl }

// SetPeersConnected attaches a cluster node's link count (the transport's
// PeersConnected): /v1/healthz gains the peersConnected field.
func (s *Server) SetPeersConnected(fn func() int) { s.peersConnected = fn }

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (rec *statusRecorder) WriteHeader(code int) {
	rec.status = code
	rec.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler. With telemetry enabled every
// request is counted and timed under its ServeMux route pattern.
// Admission runs here, before the handler: the server-wide edge gate
// bounds how many requests are in service at once and — through its CoDel
// controller — sheds arrivals when the time spent waiting for a slot stays
// above target. Health and metrics bypass the edge gate: an operator (or
// load generator) must be able to observe an overloaded node. Every shed
// is answered 429 + Retry-After without touching the platform.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.admit == nil && s.tmReq == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	if route == "GET /v1/healthz" || route == "GET /v1/metrics" {
		s.mux.ServeHTTP(rec, r)
	} else if err := s.admit.AcquireHTTP(); err != nil {
		writeShed(rec, err)
	} else {
		s.mux.ServeHTTP(rec, r)
		s.admit.ReleaseHTTP()
	}
	if s.tmReq != nil {
		s.tmLat.With(route).Observe(time.Since(start).Seconds())
		s.tmReq.With(route, strconv.Itoa(rec.status)).Inc()
	}
}

var _ http.Handler = (*Server)(nil)

// handleMetrics serves the platform registry in Prometheus text format.
// Without a registry the body is empty but the response is still a valid
// 200 exposition, so scrapers need no special-casing.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.p.Telemetry().WritePrometheus(w)
}

// handleTraces serves the retained spans as JSON (empty export without a
// registry).
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.p.Telemetry().Tracer().WriteJSON(w)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is out can only be logged;
	// for these value types they cannot occur.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// RetryAfterSeconds is the backoff hint sent with every 429.
const RetryAfterSeconds = 1

// writeShed answers a capacity refusal: 429 Too Many Requests with a
// Retry-After hint. Shed is the node protecting its latency — the
// request was refused before consuming resources, so retrying after a
// short backoff is safe and expected.
func writeShed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	writeErr(w, http.StatusTooManyRequests, err)
}

// submitStatus maps a Platform.Submit error to its HTTP status: every
// capacity condition — admission shed or the typed mempool-full error —
// is 429 (retryable, with Retry-After); everything else is a 422 the
// client must fix (bad signature, stale nonce, duplicate, oversized
// payload).
func submitStatus(err error) int {
	if errors.Is(err, admission.ErrOverCapacity) || errors.Is(err, ledger.ErrMempoolFull) {
		return http.StatusTooManyRequests
	}
	return http.StatusUnprocessableEntity
}

// submitRequest is the POST /v1/tx body.
type submitRequest struct {
	// TxHex is the hex of ledger.Tx.Encode().
	TxHex string `json:"txHex"`
}

// submitResponse echoes acceptance.
type submitResponse struct {
	TxID      string `json:"txId"`
	Committed bool   `json:"committed"`
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	GasUsed   uint64 `json:"gasUsed,omitempty"`
}

func (s *Server) handleSubmitTx(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	raw, err := hex.DecodeString(strings.TrimSpace(req.TxHex))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("txHex: %w", err))
		return
	}
	tx, err := ledger.DecodeTx(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.p.Submit(tx); err != nil {
		if status := submitStatus(err); status == http.StatusTooManyRequests {
			writeShed(w, err)
		} else {
			writeErr(w, status, err)
		}
		return
	}
	resp := submitResponse{TxID: tx.ID().String()}
	if s.AutoCommit {
		if err := s.p.CommitAll(); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		resp.Committed = true
		if rec, ok := s.p.Receipt(tx.ID()); ok {
			resp.OK = rec.OK
			resp.Err = rec.Err
			resp.GasUsed = rec.GasUsed
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// chainResponse summarizes the chain head.
type chainResponse struct {
	Height   uint64 `json:"height"`
	HeadID   string `json:"headId"`
	Items    int    `json:"items"`
	Facts    int    `json:"facts"`
	FactRoot string `json:"factRoot"`
	// CheckpointHeight is the chain height covered by the node's latest
	// written or restored checkpoint (0 when none exists).
	CheckpointHeight uint64 `json:"checkpointHeight"`
}

func (s *Server) handleChain(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, chainResponse{
		Height:           s.p.Chain().Height(),
		HeadID:           s.p.Chain().HeadID().String(),
		Items:            s.p.Graph().Len(),
		Facts:            s.p.FactIndex().Len(),
		FactRoot:         s.p.FactIndex().Root().String(),
		CheckpointHeight: s.p.CheckpointHeight(),
	})
}

// blockResponse summarizes one committed block. The e2e harness compares
// IDs across nodes at a common height to assert chain convergence.
type blockResponse struct {
	Height   uint64 `json:"height"`
	ID       string `json:"id"`
	Prev     string `json:"prev"`
	Proposer string `json:"proposer"`
	Txs      int    `json:"txs"`
	Time     string `json:"time"`
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	h, err := strconv.ParseUint(r.PathValue("height"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("height: %w", err))
		return
	}
	b, err := s.p.Chain().BlockAt(h)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, blockResponse{
		Height:   b.Header.Height,
		ID:       b.ID().String(),
		Prev:     b.Header.Prev.String(),
		Proposer: b.Header.Proposer.String(),
		Txs:      len(b.Txs),
		Time:     b.Header.Time.UTC().Format(time.RFC3339Nano),
	})
}

func (s *Server) handleItem(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Platform.Item hydrates off-chain bodies, so clients always see Text.
	item, err := s.p.Item(id)
	if err != nil {
		writeErr(w, itemStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, item)
}

// handleBlob serves a raw article body by content id. The store verifies
// the bytes against the CID's chunk root on every read, so a corrupted
// blob surfaces as an error, never as silently wrong content. Reads
// pass the blob admission gate: chunk hashing is CPU work, and under
// overload it is shed with 429 before it queues.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	cid, err := blobstore.ParseCID(r.PathValue("cid"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.admit.AcquireBlobRead(); err != nil {
		writeShed(w, err)
		return
	}
	defer s.admit.ReleaseBlobRead()
	body, err := s.p.Blobs().Get(cid)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, blobstore.ErrCorrupt) {
			status = http.StatusBadGateway
		}
		writeErr(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// MaxBlobUploadBytes caps one POST /v1/blobs body. Bodies live off-chain,
// so the cap is far looser than the on-chain payload limit, but it is
// still a cap: an unbounded read is an invitation to memory exhaustion.
const MaxBlobUploadBytes = 4 << 20

// blobPutResponse echoes the stored blob's content id and size — exactly
// the reference a news.publish transaction carries on-chain.
type blobPutResponse struct {
	CID  string `json:"cid"`
	Size int    `json:"size"`
}

// handleBlobPut stores an article body off-chain and returns {cid,size}.
// This is how a remote client publishes with off-chain bodies: upload
// the body first, then submit a news.publish transaction referencing
// the returned CID. Uploads share the blob admission gate with reads.
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	if err := s.admit.AcquireBlobRead(); err != nil {
		writeShed(w, err)
		return
	}
	defer s.admit.ReleaseBlobRead()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBlobUploadBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty blob body"))
		return
	}
	cid, err := s.p.Blobs().Put(body)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, blobPutResponse{CID: string(cid), Size: len(body)})
}

// healthzResponse is the readiness report: load generators and the e2e
// harness poll it instead of sleeping, and operators wire it into
// orchestration readiness probes.
type healthzResponse struct {
	Ready bool `json:"ready"`
	// Height is the committed chain height.
	Height uint64 `json:"height"`
	// MempoolDepth is the number of pending transactions.
	MempoolDepth int `json:"mempoolDepth"`
	// Consensus is "attached" for a replicated node, "standalone" for a
	// self-mining one.
	Consensus string `json:"consensus"`
	// CheckpointHeight is the height covered by the latest checkpoint.
	CheckpointHeight uint64 `json:"checkpointHeight"`
	// IndexerLagDocs is the async search indexer's backlog: committed
	// documents not yet visible to queries.
	IndexerLagDocs int `json:"indexerLagDocs"`
	// IngestQueueDepth is the live ingest queue depth (absent without an
	// attached pipeline).
	IngestQueueDepth *int `json:"ingestQueueDepth,omitempty"`
	// IngestDead is the number of dead-lettered ingest items kept, at most
	// the newest 256 (absent without an attached pipeline).
	IngestDead *int `json:"ingestDead,omitempty"`
	// PeersConnected is the number of peer validators this node is linked
	// with in both directions (absent on a standalone node). A cluster is
	// fully meshed when every node reports validators-1.
	PeersConnected *int `json:"peersConnected,omitempty"`
}

// handleHealthz reports readiness. Answering at all means the platform
// booted and the API is serving; the body carries the state a harness
// needs to decide "ready enough" (chain height, mempool depth,
// consensus mode).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	mode := "standalone"
	if s.p.ConsensusAttached() {
		mode = "attached"
	}
	resp := healthzResponse{
		Ready:            true,
		Height:           s.p.Chain().Height(),
		MempoolDepth:     s.p.MempoolSize(),
		Consensus:        mode,
		CheckpointHeight: s.p.CheckpointHeight(),
		IndexerLagDocs:   s.p.SearchIndexerStats().Pending,
	}
	if s.pipeline != nil {
		qs := s.pipeline.Queue().Stats()
		resp.IngestQueueDepth = &qs.Depth
		resp.IngestDead = &qs.Dead
	}
	if s.peersConnected != nil {
		n := s.peersConnected()
		resp.PeersConnected = &n
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSearch serves BM25-ranked, paginated full-text search.
// Parameters: q (required), limit (default 10; legacy alias k), offset
// (default 0). The response is a search.Page: {total, offset, results}.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	limit := 10
	for _, key := range []string{"k", "limit"} {
		if ks := r.URL.Query().Get(key); ks != "" {
			v, err := strconv.Atoi(ks)
			if err != nil || v <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("%s must be a positive integer", key))
				return
			}
			limit = v
		}
	}
	offset := 0
	if os := r.URL.Query().Get("offset"); os != "" {
		v, err := strconv.Atoi(os)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, errors.New("offset must be a non-negative integer"))
			return
		}
		offset = v
	}
	writeJSON(w, http.StatusOK, s.p.SearchPage(q, search.RankBM25, offset, limit))
}

// ingestRequest is the POST /v1/ingest body: one article for the
// pipeline.
type ingestRequest struct {
	Source string       `json:"source"`
	Topic  corpus.Topic `json:"topic"`
	Text   string       `json:"text"`
}

// ingestResponse acknowledges a durable enqueue. Seq is the queue
// sequence (stable across restarts); the article publishes
// asynchronously under a content-derived item id.
type ingestResponse struct {
	Seq uint64 `json:"seq"`
}

// handleIngest enqueues one article. The enqueue is gated by the ingest
// admission gate and the queue's own capacity bound; both shed with 429
// so producers back off instead of stacking up behind the WAL.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.pipeline == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no ingest pipeline attached"))
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing text"))
		return
	}
	if err := s.admit.AcquireIngest(); err != nil {
		writeShed(w, err)
		return
	}
	defer s.admit.ReleaseIngest()
	seq, err := s.pipeline.Enqueue(ingest.Article{Source: req.Source, Topic: req.Topic, Text: req.Text})
	if err != nil {
		if errors.Is(err, ingest.ErrQueueFull) {
			writeShed(w, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Seq: seq})
}

// handleIngestStats reports pipeline + queue accounting.
func (s *Server) handleIngestStats(w http.ResponseWriter, _ *http.Request) {
	if s.pipeline == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no ingest pipeline attached"))
		return
	}
	writeJSON(w, http.StatusOK, s.pipeline.Stats())
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	mech := ranking.Mechanism(r.URL.Query().Get("mechanism"))
	if mech == "" {
		mech = ranking.MechanismCombined
	}
	rank, err := s.p.RankItem(id, mech)
	if err != nil {
		status := itemStatus(err)
		if errors.Is(err, ranking.ErrNoSignal) {
			status = http.StatusConflict
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, rank)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, err := s.p.Graph().Trace(id)
	if err != nil {
		writeErr(w, itemStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// itemStatus maps an item, trace or rank failure: 404 for an unknown item,
// 503 when the item exists but a body the answer depends on is not on this
// node (the node that took the upload can answer), 500 for anything else —
// a state page that could not be read is not a missing item.
func itemStatus(err error) int {
	switch {
	case errors.Is(err, supplychain.ErrItemNotFound):
		return http.StatusNotFound
	case errors.Is(err, supplychain.ErrBodyUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Server) handleFacts(w http.ResponseWriter, _ *http.Request) {
	facts, err := factdb.List(s.p.Engine(), s.p.Authority())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, facts)
}

func (s *Server) handleExperts(w http.ResponseWriter, r *http.Request) {
	topic := corpus.Topic(r.URL.Query().Get("topic"))
	if topic == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing topic parameter"))
		return
	}
	k := 5
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, errors.New("k must be a positive integer"))
			return
		}
		k = v
	}
	experts, err := s.p.Experts(topic, k)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, experts)
}

// accountResponse bundles everything known about an address.
type accountResponse struct {
	Address    string           `json:"address"`
	Identity   *identity.Record `json:"identity,omitempty"`
	Balance    uint64           `json:"balance"`
	Reputation float64          `json:"reputation"`
	// Nonce is the next expected (committed) nonce for the address, so
	// remote signers — the load generator included — can sync their
	// local counters without replaying history.
	Nonce uint64 `json:"nonce"`
}

// proofResponse serializes a light-client inclusion proof; TxRaw is hex.
type proofResponse struct {
	Header ledger.Header `json:"header"`
	TxHex  string        `json:"txHex"`
	Merkle merkle.Proof  `json:"merkle"`
}

func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	raw, err := hex.DecodeString(r.PathValue("txid"))
	if err != nil || len(raw) != len(ledger.TxID{}) {
		writeErr(w, http.StatusBadRequest, errors.New("txid must be 64 hex chars"))
		return
	}
	var id ledger.TxID
	copy(id[:], raw)
	p, err := light.Prove(s.p.Chain(), id)
	if err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, ledger.ErrTxNotFound) {
			status = http.StatusInternalServerError // e.g. an index page that cannot be read
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, proofResponse{
		Header: p.Header, TxHex: hex.EncodeToString(p.TxRaw), Merkle: p.Merkle,
	})
}

func (s *Server) handleAccount(w http.ResponseWriter, r *http.Request) {
	addr, err := keys.ParseAddress(r.PathValue("addr"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := accountResponse{Address: addr.String(), Nonce: s.p.Chain().NextNonce(addr.String())}
	if rec, err := identity.Lookup(s.p.Engine(), addr); err == nil {
		resp.Identity = &rec
	}
	// Balance/reputation default to zero/initial for unknown accounts.
	resp.Balance, _ = ranking.Balance(s.p.Engine(), s.p.Authority(), addr)
	resp.Reputation, _ = ranking.Reputation(s.p.Engine(), s.p.Authority(), addr)
	writeJSON(w, http.StatusOK, resp)
}
