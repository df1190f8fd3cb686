package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/ledger"
)

// errShed marks a 429: the node refused the request before doing work.
var errShed = errors.New("shed (429)")

// call issues one request and returns the body of a 2xx answer. Every
// other status is an error; 429 is errShed.
func call(hc *http.Client, method, url, ctype string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return raw, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, errShed
	default:
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
}

func getJSON(hc *http.Client, url string, out any) error {
	raw, err := call(hc, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// submitReply mirrors httpapi's POST /v1/tx answer.
type submitReply struct {
	TxID      string `json:"txId"`
	Committed bool   `json:"committed"`
	OK        bool   `json:"ok"`
	Err       string `json:"err"`
}

func submitTx(hc *http.Client, base string, tx *ledger.Tx) (submitReply, error) {
	var rep submitReply
	body, err := json.Marshal(map[string]string{"txHex": hex.EncodeToString(tx.Encode())})
	if err != nil {
		return rep, err
	}
	raw, err := call(hc, http.MethodPost, base+"/v1/tx", "application/json", body)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(raw, &rep)
}

// uploadBlob stores a body off-chain and returns the content id.
func uploadBlob(hc *http.Client, base, text string) (string, error) {
	raw, err := call(hc, http.MethodPost, base+"/v1/blobs", "text/plain", []byte(text))
	if err != nil {
		return "", err
	}
	var r struct {
		CID string `json:"cid"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return "", err
	}
	return r.CID, nil
}

func postIngest(hc *http.Client, base, topic, text string) error {
	body, err := json.Marshal(map[string]string{"source": "bench", "topic": topic, "text": text})
	if err != nil {
		return err
	}
	_, err = call(hc, http.MethodPost, base+"/v1/ingest", "application/json", body)
	return err
}

// searchHit is one ranked result of GET /v1/search.
type searchHit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func searchFor(hc *http.Client, base, q string) ([]searchHit, error) {
	var page struct {
		Results []searchHit `json:"results"`
	}
	err := getJSON(hc, base+"/v1/search?limit=10&q="+url.QueryEscape(q), &page)
	return page.Results, err
}

// healthz mirrors the fields of GET /v1/healthz the driver reads.
type healthz struct {
	Ready          bool   `json:"ready"`
	Height         uint64 `json:"height"`
	MempoolDepth   int    `json:"mempoolDepth"`
	IndexerLagDocs int    `json:"indexerLagDocs"`
	IngestQueue    *int   `json:"ingestQueueDepth"`
}

func getHealthz(hc *http.Client, base string) (healthz, error) {
	var h healthz
	err := getJSON(hc, base+"/v1/healthz", &h)
	return h, err
}

// ingestStats mirrors the fields of GET /v1/ingest the driver reads.
type ingestStats struct {
	Queue struct {
		Depth    int `json:"depth"`
		Inflight int `json:"inflight"`
		Dead     int `json:"dead"`
	} `json:"queue"`
	Published      uint64 `json:"published"`
	Deduped        uint64 `json:"deduped"`
	Failed         uint64 `json:"failed"`
	AwaitingCommit int    `json:"awaitingCommit"`
}

// busSubscriber is one row of GET /v1/commitbus.
type busSubscriber struct {
	Lag uint64 `json:"lag"`
}
