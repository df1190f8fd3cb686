// Package blobstore is the content-addressed off-chain article store.
//
// The paper's chain commits to news items, but storing full article bodies
// inside transactions makes the ledger grow linearly with content — the
// opposite of a platform meant to serve "a high performance blockchain
// network" (§VII). Following the DClaims/IPFS production pattern, bodies
// live here instead: a blob is chunked into fixed-size pieces, each chunk
// is hashed, and the chunks' Merkle root (internal/merkle, RFC 6962
// domain-separated) is the blob's content identifier (CID). The chain
// stores only the CID, so §III tamper evidence is preserved — the CID is
// a Merkle commitment the chain still signs over — while identical chunks
// across articles (verbatim relays, the corpus's 72.3 % modified-news
// share) are stored once.
//
// The store keeps every body it is given; nothing is ever removed. Every
// Get re-derives the chunk tree and compares it to the requested CID, so a
// corrupted store is detected at read time rather than propagated.
package blobstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/merkle"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// DefaultChunkSize is the chunk size used when a Store is created with
// size 0. Article bodies are a few KiB; 1 KiB chunks keep manifests short
// while still deduplicating shared prefixes between derived articles.
const DefaultChunkSize = 1024

// Errors returned by this package.
var (
	// ErrEmptyBlob indicates a Put of zero bytes (no CID exists for it).
	ErrEmptyBlob = errors.New("blobstore: empty blob")
	// ErrNotFound indicates an unknown CID.
	ErrNotFound = errors.New("blobstore: blob not found")
	// ErrCorrupt indicates stored bytes that no longer hash to their CID.
	ErrCorrupt = errors.New("blobstore: blob failed verification")
	// ErrBadCID indicates a string that is not a valid CID encoding.
	ErrBadCID = errors.New("blobstore: malformed CID")
)

// CID is the content identifier of a blob: the Merkle root over its chunk
// hashes, rendered as hex. The zero value is invalid.
type CID string

// ParseCID validates the encoding of a CID string.
func ParseCID(s string) (CID, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != merkle.HashSize {
		return "", fmt.Errorf("%w: %q", ErrBadCID, s)
	}
	return CID(s), nil
}

// Short returns an abbreviated display form.
func (c CID) Short() string {
	if len(c) < 8 {
		return string(c)
	}
	return string(c[:8])
}

// ChunkHash identifies one chunk (the domain-separated leaf hash of its
// bytes).
type ChunkHash = merkle.Hash

// SplitChunks cuts data into fixed-size chunks (the last may be shorter).
func SplitChunks(data []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	var out [][]byte
	for len(data) > 0 {
		n := chunkSize
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// ComputeCID derives the content identifier of a body without storing it:
// the Merkle root over its fixed-size chunks.
func ComputeCID(data []byte, chunkSize int) (CID, error) {
	if len(data) == 0 {
		return "", ErrEmptyBlob
	}
	root := merkle.Root(SplitChunks(data, chunkSize))
	return CID(root.String()), nil
}

// Manifest describes how a blob reassembles from chunks. It is what a
// retrieval peer serves first: the chunk hashes fold to the CID, so a
// manifest is verifiable before any chunk arrives.
type Manifest struct {
	CID       CID         `json:"cid"`
	Size      int         `json:"size"`
	ChunkSize int         `json:"chunkSize"`
	Chunks    []ChunkHash `json:"chunks"`
}

// Verify recomputes the Merkle root over the manifest's chunk hashes and
// checks it against the CID, plus basic shape constraints. A forged
// manifest (wrong hashes, padded chunk list) fails here.
func (m *Manifest) Verify() error {
	if len(m.Chunks) == 0 || m.ChunkSize <= 0 || m.Size <= 0 {
		return fmt.Errorf("%w: manifest shape", ErrCorrupt)
	}
	want := (m.Size + m.ChunkSize - 1) / m.ChunkSize
	if len(m.Chunks) != want {
		return fmt.Errorf("%w: manifest has %d chunks for size %d", ErrCorrupt, len(m.Chunks), m.Size)
	}
	root := foldChunkRoot(m.Chunks)
	if root.String() != string(m.CID) {
		return fmt.Errorf("%w: manifest root %s != cid %s", ErrCorrupt, root.Short(), m.CID.Short())
	}
	return nil
}

// foldChunkRoot folds leaf hashes into the blob root exactly like
// merkle.Root folds leaves (same interior hashing, no re-leafing).
func foldChunkRoot(leaves []ChunkHash) merkle.Hash {
	if len(leaves) == 0 {
		return merkle.Hash{}
	}
	level := append([]merkle.Hash(nil), leaves...)
	for len(level) > 1 {
		next := make([]merkle.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, merkle.HashInterior(level[i], level[i]))
				continue
			}
			next = append(next, merkle.HashInterior(level[i], level[i+1]))
		}
		level = next
	}
	return level[0]
}

// Stats summarizes store contents and dedup effectiveness.
type Stats struct {
	Blobs  int `json:"blobs"`
	Chunks int `json:"chunks"`
	// LogicalBytes is the sum of blob sizes as stored by callers.
	LogicalBytes int64 `json:"logicalBytes"`
	// PhysicalBytes is the bytes actually held (unique chunks once).
	PhysicalBytes int64 `json:"physicalBytes"`
	// DedupRatio is LogicalBytes / PhysicalBytes (1.0 = no sharing).
	DedupRatio float64 `json:"dedupRatio"`
}

// Store is the content-addressed blob store. It is safe for concurrent
// use.
//
// Chunks and manifests are records of one append-only log: blobs.log in
// the store's directory, or a store.MemLog for a store without one. What
// the store keeps in memory is an index from the first eight bytes of each
// CID and chunk hash to the record holding it, and the counts Stats
// reports — never a chunk's bytes. Get reads the manifest and then each
// chunk back with one pread apiece, and re-derives the CID from them.
type Store struct {
	mu        sync.RWMutex
	chunkSize int
	dir       string // "" = memory only

	log   blobLog
	index hashIndex
	// Stats counts, kept up to date as records are appended.
	blobs, chunks     int
	logical, physical int64
	logBytes          int64 // bytes of the log, frames included

	// fallback, when set, is consulted by Get for CIDs this store does not
	// hold (e.g. a cluster replica reading a sibling's blob, or a network
	// fetcher). Fetched bodies are verified and cached locally.
	fallback func(CID) ([]byte, bool)

	tm storeMetrics
}

// blobLog is what the store needs of store.FileLog and store.MemLog.
type blobLog interface {
	AppendUnsynced(rec []byte) (uint64, error)
	Get(i uint64) ([]byte, error)
	ReadAt(i uint64, off int64, buf []byte) (int, error)
	RecordLen(i uint64) (int, error)
	Len() uint64
	Sync() error
	Close() error
}

// logName is the blob log's file name inside the store's directory.
const logName = "blobs.log"

// Record layout. A chunk record is kind | chunk hash | bytes; a manifest
// record is kind | CID | size u64 | chunk size u32 | chunk count u32 |
// chunk hashes, big-endian.
const (
	kindChunk           = 'c'
	kindManifest        = 'm'
	recordHeaderBytes   = 1 + merkle.HashSize
	manifestHeaderBytes = recordHeaderBytes + 8 + 4 + 4
)

// storeMetrics holds the store's cached instrument handles (nil until
// Instrument; every method is nil-safe).
type storeMetrics struct {
	puts        *telemetry.Counter
	gets        *telemetry.Counter
	corruptions *telemetry.Counter
	fallbacks   *telemetry.Counter
	blobs       *telemetry.Gauge
	chunks      *telemetry.Gauge
	logBytes    *telemetry.Gauge
}

// Instrument registers the store's metrics on reg (nil disables).
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tm = storeMetrics{
		puts:        reg.Counter("trustnews_blobstore_puts_total", "Blob store writes (including dedup no-ops)."),
		gets:        reg.Counter("trustnews_blobstore_gets_total", "Blob store reads."),
		corruptions: reg.Counter("trustnews_blobstore_corruptions_total", "Reads whose bytes failed CID verification."),
		fallbacks:   reg.Counter("trustnews_blobstore_fallback_hits_total", "Missing blobs recovered through the fallback resolver."),
		blobs:       reg.Gauge("trustnews_blobstore_blobs", "Blobs currently held."),
		chunks:      reg.Gauge("trustnews_blobstore_chunks", "Unique chunks currently held."),
		logBytes:    reg.Gauge("trustnews_blobstore_log_bytes", "Bytes of the blob log (blobs.log on a durable node): chunks and manifests, frames included."),
	}
	if fl, ok := s.log.(*store.FileLog); ok {
		fl.Instrument(reg, "blobs")
	}
	s.setGauges()
}

// setGauges publishes the counts. Caller holds s.mu.
func (s *Store) setGauges() {
	s.tm.blobs.Set(float64(s.blobs))
	s.tm.chunks.Set(float64(s.chunks))
	s.tm.logBytes.Set(float64(s.logBytes))
}

// NewStore creates an in-memory store. chunkSize 0 means DefaultChunkSize.
func NewStore(chunkSize int) *Store {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Store{chunkSize: chunkSize, log: store.NewMemLog()}
}

// Open creates or reopens a file-backed store at dir, its bodies in
// dir/blobs.log. A record damaged on disk costs the blobs that use it and
// nothing else (store.OpenFileLogSkipping): the bodies cannot be computed
// again. A directory written before the log —
// chunks/<hash> and manifests/<cid> files — is moved into the log once.
func Open(dir string, chunkSize int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: open %s: %w", dir, err)
	}
	log, err := store.OpenFileLogSkipping(filepath.Join(dir, logName))
	if err != nil {
		return nil, fmt.Errorf("blobstore: open %s: %w", dir, err)
	}
	s := NewStore(chunkSize)
	s.dir, s.log = dir, log
	if err := s.load(); err != nil {
		log.Close()
		return nil, err
	}
	if err := s.importFiles(); err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the store's log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// SetFallback installs a resolver consulted for CIDs the store is missing.
// The fetched body is verified against the CID before being cached and
// returned, so an untrusted fallback cannot poison the store.
func (s *Store) SetFallback(f func(CID) ([]byte, bool)) {
	s.mu.Lock()
	s.fallback = f
	s.mu.Unlock()
}

// ChunkSize returns the store's chunking granularity.
func (s *Store) ChunkSize() int { return s.chunkSize }

// Put stores a body and returns its CID. Identical chunks already present
// (from this or any other blob) are not stored twice. Storing the same
// body twice is a no-op returning the same CID, except that it restores
// any of the body's chunks the store lost.
func (s *Store) Put(data []byte) (CID, error) {
	if len(data) == 0 {
		return "", ErrEmptyBlob
	}
	chunks := SplitChunks(data, s.chunkSize)
	hashes := make([]ChunkHash, len(chunks))
	for i, c := range chunks {
		hashes[i] = merkle.HashLeaf(c)
	}
	root := foldChunkRoot(hashes)
	cid := CID(root.String())

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.setGauges()
	s.tm.puts.Inc()
	m := Manifest{CID: cid, Size: len(data), ChunkSize: s.chunkSize, Chunks: hashes}
	if err := s.putRecords(&m, func(i int) ([]byte, bool) { return chunks[i], true }); err != nil {
		return "", err
	}
	return cid, nil
}

// putRecords appends the chunks of m the log lacks, then m itself unless
// the log has it. chunk returns the bytes of m.Chunks[i], or false when
// they are not at hand (the blob then stays incomplete). Caller holds
// s.mu.
func (s *Store) putRecords(m *Manifest, chunk func(i int) ([]byte, bool)) error {
	for i, h := range m.Chunks {
		if _, ok, err := s.find(kindChunk, h); err != nil || ok {
			if err != nil {
				return err
			}
			continue
		}
		data, ok := chunk(i)
		if !ok {
			continue
		}
		if err := s.appendRecord(kindChunk, h, data); err != nil {
			return err
		}
		s.chunks++
		s.physical += int64(len(data))
	}
	root, _ := cidHash(m.CID)
	if _, ok, err := s.find(kindManifest, root); err != nil || ok {
		return err
	}
	if err := s.appendRecord(kindManifest, root, encodeManifestBody(m)); err != nil {
		return err
	}
	s.blobs++
	s.logical += int64(m.Size)
	return nil
}

// PutString stores a text body.
func (s *Store) PutString(text string) (CID, error) { return s.Put([]byte(text)) }

// Has reports whether the store holds a manifest for the CID.
func (s *Store) Has(cid CID) bool {
	h, ok := cidHash(cid)
	if !ok {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, found, _ := s.find(kindManifest, h)
	return found
}

// Stat returns a copy of the blob's manifest.
func (s *Store) Stat(cid CID) (Manifest, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, found, err := s.manifest(cid)
	if err != nil {
		return Manifest{}, err
	}
	if !found {
		return Manifest{}, fmt.Errorf("%w: %s", ErrNotFound, cid.Short())
	}
	return m, nil
}

// Get reassembles and verifies a blob. The chunk tree is recomputed from
// the stored bytes and compared to the CID — a flipped bit anywhere in
// any chunk surfaces as ErrCorrupt here, never as silently wrong content.
// Missing blobs, and blobs missing a chunk, are routed to the fallback
// resolver when one is set.
func (s *Store) Get(cid CID) ([]byte, error) {
	s.mu.RLock()
	body, chunkSize, found, err := s.read(cid)
	fallback := s.fallback
	tm := s.tm
	s.mu.RUnlock()

	tm.gets.Inc()
	if err != nil {
		tm.corruptions.Inc()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, cid.Short(), err)
	}
	if found {
		got, err := ComputeCID(body, chunkSize)
		if err != nil || got != cid {
			tm.corruptions.Inc()
			return nil, fmt.Errorf("%w: %s", ErrCorrupt, cid.Short())
		}
		return body, nil
	}
	if fallback != nil {
		if data, found := fallback(cid); found {
			if got, err := ComputeCID(data, s.chunkSize); err == nil && got == cid {
				// Cache the verified body locally for future reads.
				if _, err := s.Put(data); err == nil {
					tm.fallbacks.Inc()
					return data, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, cid.Short())
}

// GetString returns a blob body as text.
func (s *Store) GetString(cid CID) (string, error) {
	b, err := s.Get(cid)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Chunk returns the raw bytes of one chunk (retrieval peers serve these).
func (s *Store) Chunk(h ChunkHash) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok, err := s.chunk(h)
	return data, ok && err == nil
}

// CIDs lists every stored blob, sorted.
func (s *Store) CIDs() []CID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []CID
	_ = s.eachRecord(func(kind byte, h merkle.Hash) {
		if kind == kindManifest {
			out = append(out, CID(h.String()))
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats computes store statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Blobs:         s.blobs,
		Chunks:        s.chunks,
		LogicalBytes:  s.logical,
		PhysicalBytes: s.physical,
	}
	if st.PhysicalBytes > 0 {
		st.DedupRatio = float64(st.LogicalBytes) / float64(st.PhysicalBytes)
	}
	return st
}

// ---------------------------------------------------------------------------
// The log. Every helper runs with s.mu held (read or write as its caller).
// ---------------------------------------------------------------------------

// cidHash decodes a CID into the root it names.
func cidHash(cid CID) (merkle.Hash, bool) {
	var h merkle.Hash
	if len(cid) != 2*merkle.HashSize {
		return h, false
	}
	if _, err := hex.Decode(h[:], []byte(cid)); err != nil {
		return h, false
	}
	return h, true
}

// indexKey is the part of a hash the in-memory index keys on.
func indexKey(h merkle.Hash) uint64 { return binary.BigEndian.Uint64(h[:8]) }

// find returns the record holding the chunk or manifest with hash h. The
// index narrows the search to records whose hash starts like h; each is
// confirmed by reading its header.
func (s *Store) find(kind byte, h merkle.Hash) (rec uint64, found bool, err error) {
	var hdr [recordHeaderBytes]byte
	s.index.each(indexKey(h), func(i uint64) bool {
		if _, err = s.log.ReadAt(i, 0, hdr[:]); err != nil {
			err = fmt.Errorf("blobstore: read record %d: %w", i, err)
			return true
		}
		rec, found = i, isRecord(hdr[:], kind, h)
		return found
	})
	return rec, found, err
}

// fetch is find for a caller that wants the record's bytes: it reads each
// candidate whole, so the record found costs one pread.
func (s *Store) fetch(kind byte, h merkle.Hash) (rec []byte, found bool, err error) {
	s.index.each(indexKey(h), func(i uint64) bool {
		if rec, err = s.log.Get(i); err != nil {
			err = fmt.Errorf("blobstore: read record %d: %w", i, err)
			return true
		}
		found = isRecord(rec, kind, h)
		return found
	})
	return rec, found, err
}

// isRecord reports whether rec starts as the record of kind for hash h.
func isRecord(rec []byte, kind byte, h merkle.Hash) bool {
	return len(rec) >= recordHeaderBytes && rec[0] == kind && bytes.Equal(rec[1:recordHeaderBytes], h[:])
}

// appendRecord appends one chunk or manifest record and indexes it.
func (s *Store) appendRecord(kind byte, h merkle.Hash, body []byte) error {
	rec := make([]byte, 0, recordHeaderBytes+len(body))
	rec = append(append(append(rec, kind), h[:]...), body...)
	i, err := s.log.AppendUnsynced(rec)
	if err != nil {
		return fmt.Errorf("blobstore: append: %w", err)
	}
	if err := s.index.add(indexKey(h), i); err != nil {
		return err
	}
	s.logBytes += 8 + int64(len(rec))
	return nil
}

// manifest reads the manifest of cid.
func (s *Store) manifest(cid CID) (Manifest, bool, error) {
	h, ok := cidHash(cid)
	if !ok {
		return Manifest{}, false, nil
	}
	rec, found, err := s.fetch(kindManifest, h)
	if err != nil || !found {
		return Manifest{}, false, err
	}
	m, err := decodeManifest(rec)
	return m, err == nil, err
}

// chunk reads the bytes of the chunk with hash h.
func (s *Store) chunk(h ChunkHash) ([]byte, bool, error) {
	rec, found, err := s.fetch(kindChunk, h)
	if err != nil || !found {
		return nil, false, err
	}
	return rec[recordHeaderBytes:], true, nil
}

// read reassembles a blob's body from its records, unverified. found is
// false when the manifest or one of its chunks is not in the log.
func (s *Store) read(cid CID) (body []byte, chunkSize int, found bool, err error) {
	m, found, err := s.manifest(cid)
	if err != nil || !found {
		return nil, 0, false, err
	}
	// Sized by the chunks read, not by the manifest's claim.
	parts := make([][]byte, len(m.Chunks))
	for i, h := range m.Chunks {
		data, ok, err := s.chunk(h)
		if err != nil || !ok {
			return nil, 0, false, err
		}
		parts[i] = data
	}
	return bytes.Join(parts, nil), m.ChunkSize, true, nil
}

// recordHeader parses the kind and hash a record starts with.
func recordHeader(hdr []byte) (byte, merkle.Hash, bool) {
	var h merkle.Hash
	if len(hdr) < recordHeaderBytes || (hdr[0] != kindChunk && hdr[0] != kindManifest) {
		return 0, h, false
	}
	copy(h[:], hdr[1:])
	return hdr[0], h, true
}

// eachRecord calls fn with every indexed record in log order — the records
// load took, not damaged or duplicate ones.
func (s *Store) eachRecord(fn func(kind byte, h merkle.Hash)) error {
	var hdr [recordHeaderBytes]byte
	for i := uint64(0); i < s.log.Len(); i++ {
		n, err := s.log.ReadAt(i, 0, hdr[:])
		if err != nil && err != io.EOF {
			return fmt.Errorf("blobstore: read record %d: %w", i, err)
		}
		kind, h, ok := recordHeader(hdr[:n])
		if !ok {
			continue
		}
		if rec, found, err := s.find(kind, h); err != nil {
			return err
		} else if found && rec == i {
			fn(kind, h)
		}
	}
	return nil
}

// load indexes the log and counts it. A record that is not a well-formed
// chunk or manifest, or repeats one already indexed, is left out.
func (s *Store) load() error {
	var hdr [manifestHeaderBytes]byte
	for i := uint64(0); i < s.log.Len(); i++ {
		size, err := s.log.RecordLen(i)
		if err != nil {
			return fmt.Errorf("blobstore: load: %w", err)
		}
		s.logBytes += 8 + int64(size)
		n, err := s.log.ReadAt(i, 0, hdr[:])
		if err != nil && err != io.EOF {
			return fmt.Errorf("blobstore: load record %d: %w", i, err)
		}
		kind, h, ok := recordHeader(hdr[:n])
		if !ok {
			continue
		}
		var blobSize int64
		if kind == kindManifest {
			m, err := decodeManifestHeader(hdr[:n], size)
			if err != nil {
				continue
			}
			blobSize = int64(m.Size)
		}
		if _, dup, err := s.find(kind, h); err != nil {
			return err
		} else if dup {
			continue
		}
		if err := s.index.add(indexKey(h), i); err != nil {
			return err
		}
		if kind == kindManifest {
			s.blobs++
			s.logical += blobSize
		} else {
			s.chunks++
			s.physical += int64(size - recordHeaderBytes)
		}
	}
	s.setGauges()
	return nil
}

// encodeManifestBody lays out what follows a manifest record's kind and CID.
func encodeManifestBody(m *Manifest) []byte {
	out := make([]byte, 0, manifestHeaderBytes-recordHeaderBytes+len(m.Chunks)*merkle.HashSize)
	out = binary.BigEndian.AppendUint64(out, uint64(m.Size))
	out = binary.BigEndian.AppendUint32(out, uint32(m.ChunkSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Chunks)))
	for _, h := range m.Chunks {
		out = append(out, h[:]...)
	}
	return out
}

// decodeManifestHeader checks a manifest record's fixed fields against the
// record's length recLen and the blob's shape; Chunks is left empty.
func decodeManifestHeader(hdr []byte, recLen int) (Manifest, error) {
	if len(hdr) < manifestHeaderBytes || hdr[0] != kindManifest {
		return Manifest{}, fmt.Errorf("%w: manifest record header", ErrCorrupt)
	}
	var root merkle.Hash
	copy(root[:], hdr[1:])
	size := binary.BigEndian.Uint64(hdr[recordHeaderBytes:])
	chunkSize := binary.BigEndian.Uint32(hdr[recordHeaderBytes+8:])
	n := binary.BigEndian.Uint32(hdr[recordHeaderBytes+12:])
	if size == 0 || size > math.MaxInt32 || chunkSize == 0 || chunkSize > math.MaxInt32 ||
		uint64(n) != (size+uint64(chunkSize)-1)/uint64(chunkSize) ||
		int64(recLen) != manifestHeaderBytes+int64(n)*merkle.HashSize {
		return Manifest{}, fmt.Errorf("%w: manifest of %d bytes in %d-byte chunks with %d chunk hashes in a %d-byte record", ErrCorrupt, size, chunkSize, n, recLen)
	}
	return Manifest{CID: CID(root.String()), Size: int(size), ChunkSize: int(chunkSize)}, nil
}

// decodeManifest parses a whole manifest record.
func decodeManifest(rec []byte) (Manifest, error) {
	m, err := decodeManifestHeader(rec, len(rec))
	if err != nil {
		return Manifest{}, err
	}
	m.Chunks = make([]ChunkHash, (len(rec)-manifestHeaderBytes)/merkle.HashSize)
	for i := range m.Chunks {
		copy(m.Chunks[i][:], rec[manifestHeaderBytes+i*merkle.HashSize:])
	}
	return m, nil
}

// hashIndex maps the first eight bytes of a CID or chunk hash to the log
// records whose hash starts with them: an open-addressing table of twelve
// bytes a slot, kept under three-quarters full. A Go map keyed by whole
// hashes costs about 84 bytes an entry, which for a 4 KiB body of four
// chunks was more than the budget of TestBlobStoreHoldsNoBodies. Records
// sharing a key each take a slot; find reads them all.
type hashIndex struct {
	keys []uint64
	recs []uint32 // record number + 1; 0 marks a free slot
	n    int
}

// add indexes record rec under key.
func (x *hashIndex) add(key uint64, rec uint64) error {
	if rec >= math.MaxUint32 {
		return fmt.Errorf("blobstore: log holds more than %d records", uint32(math.MaxUint32-1))
	}
	if 4*(x.n+1) > 3*len(x.keys) {
		x.grow()
	}
	x.insert(key, uint32(rec)+1)
	x.n++
	return nil
}

func (x *hashIndex) insert(key uint64, slot uint32) {
	mask := uint64(len(x.keys) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		if x.recs[i] == 0 {
			x.keys[i], x.recs[i] = key, slot
			return
		}
	}
}

func (x *hashIndex) grow() {
	keys, recs := x.keys, x.recs
	size := max(64, 2*len(keys))
	x.keys, x.recs = make([]uint64, size), make([]uint32, size)
	for i, r := range recs {
		if r != 0 {
			x.insert(keys[i], r)
		}
	}
}

// each calls fn with the records indexed under key until fn returns true.
func (x *hashIndex) each(key uint64, fn func(rec uint64) bool) {
	if len(x.keys) == 0 {
		return
	}
	mask := uint64(len(x.keys) - 1)
	for i := key & mask; x.recs[i] != 0; i = (i + 1) & mask {
		if x.keys[i] == key && fn(uint64(x.recs[i]-1)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Files beside the log.
// ---------------------------------------------------------------------------

// importFiles moves the bodies of a directory written before the log —
// chunks/<hash> and manifests/<cid> files — into the log, and removes the
// files once the log holding them is synced. A chunk file whose bytes do
// not hash to its name is left out, so the blob reads as missing (and a
// Put or fetch of the body restores it) rather than as corrupt for ever.
func (s *Store) importFiles() error {
	mdir, cdir := filepath.Join(s.dir, "manifests"), filepath.Join(s.dir, "chunks")
	entries, err := os.ReadDir(mdir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("blobstore: import: %w", err)
	}
	for _, e := range entries {
		cid, err := ParseCID(e.Name())
		if err != nil || e.IsDir() {
			continue // foreign file; ignore
		}
		raw, err := os.ReadFile(filepath.Join(mdir, e.Name()))
		if err != nil {
			return fmt.Errorf("blobstore: import manifest %s: %w", cid.Short(), err)
		}
		m, err := parseManifest(cid, string(raw))
		if err != nil || m.Verify() != nil {
			continue
		}
		err = s.putRecords(m, func(i int) ([]byte, bool) {
			data, err := os.ReadFile(filepath.Join(cdir, m.Chunks[i].String()))
			return data, err == nil && merkle.HashLeaf(data) == m.Chunks[i]
		})
		if err != nil {
			return err
		}
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("blobstore: import: %w", err)
	}
	if err := os.RemoveAll(mdir); err != nil {
		return fmt.Errorf("blobstore: import: %w", err)
	}
	if err := os.RemoveAll(cdir); err != nil {
		return fmt.Errorf("blobstore: import: %w", err)
	}
	s.setGauges()
	return nil
}

// parseManifest decodes the "size chunkSize\nhash\nhash..." format of the
// manifest files importFiles reads.
func parseManifest(cid CID, body string) (*Manifest, error) {
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("blobstore: manifest %s: short file", cid.Short())
	}
	m := &Manifest{CID: cid}
	if _, err := fmt.Sscanf(lines[0], "%d %d", &m.Size, &m.ChunkSize); err != nil {
		return nil, fmt.Errorf("blobstore: manifest %s header: %w", cid.Short(), err)
	}
	for _, line := range lines[1:] {
		raw, err := hex.DecodeString(strings.TrimSpace(line))
		if err != nil || len(raw) != merkle.HashSize {
			return nil, fmt.Errorf("blobstore: manifest %s: bad chunk hash", cid.Short())
		}
		var h ChunkHash
		copy(h[:], raw)
		m.Chunks = append(m.Chunks, h)
	}
	return m, nil
}
