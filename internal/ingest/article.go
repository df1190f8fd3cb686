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
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/corpus"
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

// WAL record layout: [version][op][seq u64 BE] then, for enqueue
// records, three u32-BE length-prefixed strings (source, topic, text).
// Ack and dead records carry only the header.
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
	rec := make([]byte, 0, n)
	rec = append(rec, recVersion, op)
	rec = binary.BigEndian.AppendUint64(rec, seq)
	if op == opEnqueue {
		for _, s := range []string{a.Source, string(a.Topic), a.Text} {
			rec = binary.BigEndian.AppendUint32(rec, uint32(len(s)))
			rec = append(rec, s...)
		}
	}
	return rec
}

// decodeRecord parses one queue WAL record, rejecting hostile lengths
// and trailing garbage.
func decodeRecord(rec []byte) (op byte, seq uint64, a Article, err error) {
	if len(rec) < recHeaderLen {
		return 0, 0, Article{}, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(rec))
	}
	if rec[0] != recVersion {
		return 0, 0, Article{}, fmt.Errorf("%w: version %d", ErrBadRecord, rec[0])
	}
	op = rec[1]
	seq = binary.BigEndian.Uint64(rec[2:10])
	rest := rec[recHeaderLen:]
	switch op {
	case opAck, opDead:
		if len(rest) != 0 {
			return 0, 0, Article{}, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(rest))
		}
		return op, seq, Article{}, nil
	case opEnqueue:
		fields := make([]string, 3)
		for i := range fields {
			if len(rest) < 4 {
				return 0, 0, Article{}, fmt.Errorf("%w: short field header", ErrBadRecord)
			}
			n := binary.BigEndian.Uint32(rest[:4])
			rest = rest[4:]
			if n > maxFieldBytes || uint64(n) > uint64(len(rest)) {
				return 0, 0, Article{}, fmt.Errorf("%w: field length %d", ErrBadRecord, n)
			}
			fields[i] = string(rest[:n])
			rest = rest[n:]
		}
		if len(rest) != 0 {
			return 0, 0, Article{}, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(rest))
		}
		return op, seq, Article{Source: fields[0], Topic: corpus.Topic(fields[1]), Text: fields[2]}, nil
	default:
		return 0, 0, Article{}, fmt.Errorf("%w: op %d", ErrBadRecord, op)
	}
}
