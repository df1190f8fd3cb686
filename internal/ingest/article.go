// Package ingest is the continuous-ingestion subsystem: a durable,
// bounded work queue feeding concurrent pipeline workers that extract,
// chunk, and publish external articles onto the chain.
//
// The paper assumes newsrooms run "Internet crawlers to collect news"
// (§VI) continuously. That firehose must not couple to the commit path:
// a slow extraction or a burst of fetches must never delay block
// production, and a crash must never lose accepted work. The queue
// therefore write-ahead-logs every accepted article (reusing the
// store.FileLog CRC framing, so torn tails truncate and tampering is
// detected on replay). Workers wait for work rather than poll for it, a
// settler settles publishes when blocks commit, a failed attempt retries
// after one fixed delay, and the fifth failure dead-letters the item.
// Publishes are made effectively exactly-once by deriving the item id
// from the article's normalized content key: a redelivered item
// publishes under the same id, which the supply-chain contract rejects
// as a duplicate, and the pipeline converts that rejection into an ack.
package ingest

import (
	"errors"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/ledger"
)

// Errors returned by this package.
var (
	// ErrQueueFull indicates an Enqueue against a queue at capacity.
	ErrQueueFull = errors.New("ingest: queue full")
	// ErrBadRecord indicates a WAL record that does not decode.
	ErrBadRecord = errors.New("ingest: bad queue record")
	// ErrClosed indicates an operation on a stopped component.
	ErrClosed = errors.New("ingest: closed")
)

// Article is one unit of ingest work: an externally fetched piece
// awaiting extraction and publication.
type Article struct {
	// Source identifies the outlet the article was fetched from.
	Source string `json:"source"`
	// Topic is the article's topic tag.
	Topic corpus.Topic `json:"topic"`
	// Text is the raw fetched body (pre-extraction).
	Text string `json:"text"`
}

// WAL record layout, in the ledger's field codec: [version u8][op u8]
// [seq u64] then, for enqueue records, three u32-length-prefixed strings
// (source, topic, text). Ack and dead records carry only the header.
const (
	recVersion = 1

	opEnqueue = 1
	opAck     = 2
	opDead    = 3

	recHeaderLen = 1 + 1 + 8

	// maxFieldBytes bounds each decoded string field. Hostile lengths in
	// a corrupted or fuzzed WAL clamp here instead of allocating
	// gigabytes.
	maxFieldBytes = 1 << 20
)

// encodeRecord serializes one queue WAL record.
func encodeRecord(op byte, seq uint64, a *Article) []byte {
	n := recHeaderLen
	if op == opEnqueue {
		n += 12 + len(a.Source) + len(a.Topic) + len(a.Text)
	}
	w := ledger.Writer{Buf: make([]byte, 0, n)}
	w.U8(recVersion)
	w.U8(op)
	w.U64(seq)
	if op == opEnqueue {
		w.Str(a.Source)
		w.Str(string(a.Topic))
		w.Str(a.Text)
	}
	return w.Buf
}

// decodeRecord parses one queue WAL record, rejecting hostile lengths
// and trailing garbage.
func decodeRecord(rec []byte) (op byte, seq uint64, a Article, err error) {
	r := ledger.NewReader(rec)
	if v := r.U8(); r.Err() == nil && v != recVersion {
		r.Fail(fmt.Errorf("version %d", v))
	}
	op, seq = r.U8(), r.U64()
	switch op {
	case opAck, opDead:
	case opEnqueue:
		a = Article{Source: r.Str(maxFieldBytes), Topic: corpus.Topic(r.Str(maxFieldBytes)), Text: r.Str(maxFieldBytes)}
	default:
		r.Fail(fmt.Errorf("op %d", op))
	}
	if err := r.Done(); err != nil {
		return 0, 0, Article{}, fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	return op, seq, a, nil
}
