package loadgen

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/ledger"
)

// Client is the thin HTTP client the generator drives against one
// trustnewsd node. It speaks only the public /v1 API — the generator
// has no in-process shortcut into the node, so measured latencies
// include the full serving path.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for the node at base (e.g.
// "http://127.0.0.1:8420"). Request timeouts are the caller's job: an
// open-loop generator must bound every request or a stalled node would
// pile up goroutines without limit.
func NewClient(base string, timeout time.Duration) *Client {
	return &Client{
		base: base,
		http: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		},
	}
}

// Outcome classifies one request for the scoreboard.
type Outcome int

const (
	// OutcomeOK is a successful request (2xx).
	OutcomeOK Outcome = iota
	// OutcomeShed is a capacity refusal (429): the node protected
	// itself exactly as designed. Shed requests are not failures.
	OutcomeShed
	// OutcomeFailed is everything else — unexpected status codes,
	// transport errors, timeouts.
	OutcomeFailed
)

// statusOutcome maps an HTTP status to an Outcome.
func statusOutcome(code int) Outcome {
	switch {
	case code >= 200 && code < 300:
		return OutcomeOK
	case code == http.StatusTooManyRequests:
		return OutcomeShed
	default:
		return OutcomeFailed
	}
}

// submitRequest mirrors httpapi's POST /v1/tx body.
type submitRequest struct {
	TxHex string `json:"txHex"`
}

// SubmitTx signs nothing — tx arrives pre-signed — and posts it. The
// returned outcome distinguishes accepted (OK), shed (429), and failed.
func (c *Client) SubmitTx(tx *ledger.Tx) (Outcome, error) {
	body, err := json.Marshal(submitRequest{TxHex: hex.EncodeToString(tx.Encode())})
	if err != nil {
		return OutcomeFailed, err
	}
	resp, err := c.http.Post(c.base+"/v1/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		return OutcomeFailed, err
	}
	defer drain(resp)
	out := statusOutcome(resp.StatusCode)
	if out == OutcomeFailed {
		return out, fmt.Errorf("POST /v1/tx: status %d", resp.StatusCode)
	}
	return out, nil
}

// blobPutResponse mirrors httpapi's POST /v1/blobs response.
type blobPutResponse struct {
	CID  string `json:"cid"`
	Size int    `json:"size"`
}

// UploadBlob stores an article body off-chain and returns its content
// id — the remote half of off-chain publishing.
func (c *Client) UploadBlob(body string) (string, Outcome, error) {
	resp, err := c.http.Post(c.base+"/v1/blobs", "text/plain", bytes.NewReader([]byte(body)))
	if err != nil {
		return "", OutcomeFailed, err
	}
	defer drain(resp)
	out := statusOutcome(resp.StatusCode)
	if out != OutcomeOK {
		if out == OutcomeShed {
			return "", out, nil
		}
		return "", out, fmt.Errorf("POST /v1/blobs: status %d", resp.StatusCode)
	}
	var pr blobPutResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return "", OutcomeFailed, err
	}
	return pr.CID, OutcomeOK, nil
}

// ReadBlob fetches a blob by content id, discarding the body (the
// generator measures the serving path, it does not use the content).
func (c *Client) ReadBlob(cid string) (Outcome, error) {
	return c.get("/v1/blobs/" + cid)
}

// searchPage mirrors the shape httpapi returns for GET /v1/search (a
// search.Page). The generator decodes it — rather than draining blind —
// so a response-shape regression surfaces as a loadgen failure.
type searchPage struct {
	Total   int `json:"total"`
	Offset  int `json:"offset"`
	Results []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// Search runs a ranked keyword query against the committed article
// index and returns the hit count.
func (c *Client) Search(query string, limit int) (int, Outcome, error) {
	path := "/v1/search?q=" + url.QueryEscape(query) + fmt.Sprintf("&limit=%d", limit)
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, OutcomeFailed, err
	}
	defer drain(resp)
	out := statusOutcome(resp.StatusCode)
	if out != OutcomeOK {
		if out == OutcomeShed {
			return 0, out, nil
		}
		return 0, out, fmt.Errorf("GET /v1/search: status %d", resp.StatusCode)
	}
	var page searchPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return 0, OutcomeFailed, fmt.Errorf("GET /v1/search: decode: %w", err)
	}
	return page.Total, OutcomeOK, nil
}

// ingestRequest mirrors httpapi's POST /v1/ingest body.
type ingestRequest struct {
	Source string `json:"source"`
	Topic  string `json:"topic"`
	Text   string `json:"text"`
}

// Ingest enqueues one article into the node's ingestion pipeline. A 202
// means durably queued (publication is asynchronous); 429 means the
// ingest gate or the queue itself shed the article.
func (c *Client) Ingest(source, topic, text string) (Outcome, error) {
	body, err := json.Marshal(ingestRequest{Source: source, Topic: topic, Text: text})
	if err != nil {
		return OutcomeFailed, err
	}
	resp, err := c.http.Post(c.base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return OutcomeFailed, err
	}
	defer drain(resp)
	out := statusOutcome(resp.StatusCode)
	if out == OutcomeFailed {
		return out, fmt.Errorf("POST /v1/ingest: status %d", resp.StatusCode)
	}
	return out, nil
}

// get issues a GET, drains the body, and classifies the status.
func (c *Client) get(path string) (Outcome, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return OutcomeFailed, err
	}
	defer drain(resp)
	out := statusOutcome(resp.StatusCode)
	if out == OutcomeFailed {
		return out, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, nil
}

// accountResponse carries the one field the generator needs from
// GET /v1/accounts/{addr}: the chain's next expected nonce.
type accountResponse struct {
	Nonce uint64 `json:"nonce"`
}

// NextNonce asks the node for the next expected nonce of addr, used to
// (re)synchronize a sender after an unexpected submit failure.
func (c *Client) NextNonce(addr string) (uint64, error) {
	resp, err := c.http.Get(c.base + "/v1/accounts/" + addr)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/accounts/%s: status %d", addr, resp.StatusCode)
	}
	var ar accountResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return 0, err
	}
	return ar.Nonce, nil
}

// Healthz mirrors httpapi's readiness report. The ingest fields are
// pointers because a node without an attached pipeline omits them.
type Healthz struct {
	Ready          bool   `json:"ready"`
	Height         uint64 `json:"height"`
	MempoolDepth   int    `json:"mempoolDepth"`
	Consensus      string `json:"consensus"`
	IndexerLagDocs int    `json:"indexerLagDocs"`
	IngestQueue    *int   `json:"ingestQueueDepth,omitempty"`
	IngestDead     *int   `json:"ingestDead,omitempty"`
}

// Healthz fetches the node's readiness report.
func (c *Client) Healthz() (Healthz, error) {
	var hz Healthz
	resp, err := c.http.Get(c.base + "/v1/healthz")
	if err != nil {
		return hz, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return hz, fmt.Errorf("GET /v1/healthz: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	return hz, err
}

// WaitReady polls /v1/healthz until the node answers ready or the
// deadline passes. Load generators and test harnesses use this instead
// of sleeping an arbitrary interval after process start.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hz, err := c.Healthz()
		if err == nil && hz.Ready {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("node not ready")
			}
			return fmt.Errorf("loadgen: node at %s not ready after %s: %w", c.base, timeout, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// WaitDrained polls until the mempool is empty and at least minHeight
// blocks are committed — the setup phase uses it to ensure seed
// articles and mints are executed before measurement traffic starts.
func (c *Client) WaitDrained(minHeight uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hz, err := c.Healthz()
		if err == nil && hz.MempoolDepth == 0 && hz.Height >= minHeight {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: node at %s did not drain (height %d/%d, mempool %d) after %s",
				c.base, hz.Height, minHeight, hz.MempoolDepth, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Metrics fetches the raw Prometheus exposition from /v1/metrics.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/v1/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return string(raw), nil
}

// drain empties and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
