package blobstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/merkle"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore(16)
	body := []byte("the committee approved the budget after a long debate over revenue")
	cid, err := s.Put(body)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.Has(cid) {
		t.Fatal("Has after Put = false")
	}
	got, err := s.Get(cid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, want %q", got, body)
	}
	// Deterministic CID, idempotent Put.
	cid2, err := s.Put(body)
	if err != nil || cid2 != cid {
		t.Fatalf("second Put = (%s, %v), want (%s, nil)", cid2, err, cid)
	}
	if st := s.Stats(); st.Blobs != 1 {
		t.Fatalf("Blobs = %d after duplicate Put, want 1", st.Blobs)
	}
}

func TestEmptyBlobRejected(t *testing.T) {
	s := NewStore(0)
	if _, err := s.Put(nil); !errors.Is(err, ErrEmptyBlob) {
		t.Fatalf("Put(nil) err = %v, want ErrEmptyBlob", err)
	}
	if _, err := ComputeCID(nil, 16); !errors.Is(err, ErrEmptyBlob) {
		t.Fatalf("ComputeCID(nil) err = %v, want ErrEmptyBlob", err)
	}
}

func TestComputeCIDMatchesStore(t *testing.T) {
	s := NewStore(32)
	body := []byte(strings.Repeat("chunked article body text ", 20))
	want, err := ComputeCID(body, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Put(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Put cid %s != ComputeCID %s", got, want)
	}
}

func TestChunkDedupAcrossBlobs(t *testing.T) {
	s := NewStore(16)
	var sb strings.Builder
	for i := 0; i < 8; i++ { // 8 distinct aligned chunks
		sb.WriteString(strings.Repeat(string(rune('0'+i)), 16))
	}
	shared := sb.String()
	a := shared + strings.Repeat("A", 16) + strings.Repeat("a", 16)
	b := shared + strings.Repeat("B", 16) + strings.Repeat("b", 16)
	if _, err := s.PutString(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutString(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// 10 chunks per blob, 8 shared: 12 physical chunks, not 20.
	if st.Chunks != 12 {
		t.Fatalf("Chunks = %d, want 12 (shared prefix deduplicated)", st.Chunks)
	}
	if st.DedupRatio <= 1.0 {
		t.Fatalf("DedupRatio = %.2f, want > 1", st.DedupRatio)
	}
}

// flippingLog hands out record rec with its last byte flipped, like a
// disk returning bad bytes that still pass the frame checksum.
type flippingLog struct {
	blobLog
	rec uint64
}

func (l flippingLog) Get(i uint64) ([]byte, error) {
	b, err := l.blobLog.Get(i)
	if err == nil && i == l.rec {
		b[len(b)-1] ^= 0xff
	}
	return b, err
}

func TestGetDetectsCorruption(t *testing.T) {
	s := NewStore(8)
	cid, err := s.PutString("aaaaaaaabbbbbbbbcccccccc")
	if err != nil {
		t.Fatal(err)
	}
	// Records 0..2 are the chunks, 3 the manifest: damage the second chunk.
	s.log = flippingLog{blobLog: s.log, rec: 1}
	if _, err := s.Get(cid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after tamper err = %v, want ErrCorrupt", err)
	}
}

func TestGetUnknownCID(t *testing.T) {
	s := NewStore(0)
	cid, _ := ComputeCID([]byte("never stored"), 0)
	if _, err := s.Get(cid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get err = %v, want ErrNotFound", err)
	}
}

func TestFilePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("durable article body ", 10)
	cid, err := s.PutString(body)
	if err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, 16)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := re.GetString(cid)
	if err != nil || got != body {
		t.Fatalf("reopened Get = (%q, %v), want body", got, err)
	}
}

// chunkRecordOffset returns the file offset of the payload of the frame in
// dir's blob log that holds chunk h.
func chunkRecordOffset(t *testing.T, dir string, h ChunkHash) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+8 <= len(raw); off += 8 + int(binary.BigEndian.Uint32(raw[off:])) {
		if p := raw[off+8:]; p[0] == kindChunk && bytes.Equal(p[1:1+merkle.HashSize], h[:]) {
			return off + 8
		}
	}
	t.Fatalf("no record for chunk %s", h.Short())
	return 0
}

// A damaged chunk record costs the blobs that use it and nothing else: the
// store opens, every other blob reads back, and later records are kept.
// A byte flipped on disk fails the frame checksum and the chunk is
// missing; one flipped with the checksum forged to match is caught by the
// CID check. A byte flipped in the record's length field — making the
// frame run into the records after it, or past the file — costs the
// chunk as well, and only the chunk.
func TestFilePersistenceDetectsTamperedChunk(t *testing.T) {
	cases := []struct {
		name     string
		at       int // byte flipped, from the start of the chunk record's payload
		forgeCRC bool
		want     error
	}{
		{"payload byte", recordHeaderBytes + 2, false, ErrNotFound},
		{"payload byte, checksum forged", recordHeaderBytes + 2, true, ErrCorrupt},
		{"length low byte", -5, false, ErrNotFound},
		{"length high byte", -8, false, ErrNotFound},
	}
	for _, tc := range cases {
		forgeCRC := tc.forgeCRC
		dir := t.TempDir()
		s, err := Open(dir, 16)
		if err != nil {
			t.Fatal(err)
		}
		before, err := s.PutString(strings.Repeat("an earlier article ", 8))
		if err != nil {
			t.Fatal(err)
		}
		victim, err := s.PutString(strings.Repeat("tamper evident body ", 8))
		if err != nil {
			t.Fatal(err)
		}
		after, err := s.PutString(strings.Repeat("a later article ", 8))
		if err != nil {
			t.Fatal(err)
		}
		m, _ := s.Stat(victim)
		s.Close()

		path := filepath.Join(dir, logName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := chunkRecordOffset(t, dir, m.Chunks[1])
		raw[off+tc.at] ^= 0xff
		if forgeCRC {
			n := int(binary.BigEndian.Uint32(raw[off-8:]))
			binary.BigEndian.PutUint32(raw[off-4:], crc32.ChecksumIEEE(raw[off:off+n]))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, 16)
		if err != nil {
			t.Fatalf("%s: reopen over a damaged chunk record: %v", tc.name, err)
		}
		if _, err := re.Get(victim); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Get of the damaged blob err = %v, want %v", tc.name, err, tc.want)
		}
		for _, cid := range []CID{before, after} {
			if _, err := re.Get(cid); err != nil {
				t.Fatalf("%s: Get of an undamaged blob: %v", tc.name, err)
			}
		}
		// Storing the body again restores the lost chunk.
		if _, err := re.PutString(strings.Repeat("tamper evident body ", 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := re.Get(victim); (err == nil) == forgeCRC {
			t.Fatalf("%s: Get after the body was stored again: %v", tc.name, err)
		}
		re.Close()
	}
}

// A crash mid-append leaves a torn frame at the end of the log: the open
// cuts it, the blobs before it read back and the log takes new records.
func TestOpenCutsTornLogTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := s.PutString(strings.Repeat("survives the crash ", 4))
	torn, _ := s.PutString(strings.Repeat("torn by the crash ", 4))
	s.Close()
	path := filepath.Join(dir, logName)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Get(kept); err != nil {
		t.Fatalf("blob before the torn record: %v", err)
	}
	if re.Has(torn) {
		t.Fatal("blob whose manifest was torn is still listed")
	}
	if _, err := re.PutString(strings.Repeat("torn by the crash ", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Get(torn); err != nil {
		t.Fatalf("blob stored again after the cut: %v", err)
	}
}

// writeFilePerChunkLayout writes bodies the way stores did before the log: one
// file per chunk under chunks/, one per manifest under manifests/.
func writeFilePerChunkLayout(t *testing.T, dir string, chunkSize int, bodies []string) []CID {
	t.Helper()
	for _, sub := range []string{"chunks", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var cids []CID
	for _, body := range bodies {
		var sb strings.Builder
		var hashes []ChunkHash
		for _, c := range SplitChunks([]byte(body), chunkSize) {
			h := merkle.HashLeaf(c)
			hashes = append(hashes, h)
			if err := os.WriteFile(filepath.Join(dir, "chunks", h.String()), c, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cid := CID(foldChunkRoot(hashes).String())
		fmt.Fprintf(&sb, "%d %d\n", len(body), chunkSize)
		for _, h := range hashes {
			sb.WriteString(h.String() + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, "manifests", string(cid)), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		cids = append(cids, cid)
	}
	return cids
}

// A directory written before the log is imported once, with every body
// byte for byte; the chunk and manifest files go, and the pins file of
// those builds is left alone.
func TestOpenImportsFilePerChunkLayout(t *testing.T) {
	dir := t.TempDir()
	bodies := []string{
		strings.Repeat("a wire story reprinted ", 10),
		strings.Repeat("a wire story reprinted ", 10) + "with a local paragraph",
		"short",
	}
	cids := writeFilePerChunkLayout(t, dir, 16, bodies)
	if err := os.WriteFile(filepath.Join(dir, "pins"), []byte(string(cids[0])), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		s, err := Open(dir, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i, cid := range cids {
			if got, err := s.GetString(cid); err != nil || got != bodies[i] {
				t.Fatalf("round %d: body %d = %q, %v", round, i, got, err)
			}
		}
		if st := s.Stats(); st.Blobs != len(bodies) || st.DedupRatio <= 1 {
			t.Fatalf("round %d: stats %+v", round, st)
		}
		for _, sub := range []string{"chunks", "manifests"} {
			if _, err := os.Stat(filepath.Join(dir, sub)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("round %d: %s/ still there after the import (%v)", round, sub, err)
			}
		}
		s.Close()
	}
}

// What a durable store keeps in memory per body is its index slots, not
// its bytes: 2 000 bodies of 4 KiB may grow the heap by 300 bytes each.
func TestBlobStoreHoldsNoBodies(t *testing.T) {
	const bodies, size = 2000, 4096
	s, err := Open(t.TempDir(), DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	rng := rand.New(rand.NewSource(1))
	body := make([]byte, size)
	before := heapInUse()
	for i := 0; i < bodies; i++ {
		rng.Read(body)
		if _, err := s.Put(body); err != nil {
			t.Fatal(err)
		}
	}
	after := heapInUse()
	perBody := float64(int64(after)-int64(before)) / bodies
	t.Logf("heap in use grew %.1f KB for %d bodies of %d bytes: %.0f B per body", float64(int64(after)-int64(before))/1024, bodies, size, perBody)
	if perBody > 300 {
		t.Fatalf("heap grew %.0f bytes per stored body, budget 300", perBody)
	}
	if st := s.Stats(); st.Blobs != bodies || st.PhysicalBytes != bodies*size {
		t.Fatalf("stats %+v", st)
	}
}

// FuzzBlobLog opens hostile bytes as a blob log: the open must not panic
// or allocate far beyond the input, and every blob it then lists must
// read back verified or fail with an error.
func FuzzBlobLog(f *testing.F) {
	seed := sampleBlobLog(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	flipped := bytes.Clone(seed)
	flipped[20] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocBefore := ms.TotalAlloc
		s, err := Open(dir, 16)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - allocBefore; grew > uint64(4*len(data))+64<<10 {
			t.Fatalf("opening a %d-byte log allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		defer s.Close()
		for _, cid := range s.CIDs() {
			if _, err := s.Get(cid); err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(%s): %v", cid.Short(), err)
			}
			_, _ = s.Stat(cid)
		}
		_ = s.Stats()
	})
}

// sampleBlobLog returns the bytes of a small blob log with two bodies sharing a
// chunk.
func sampleBlobLog(tb testing.TB) []byte {
	dir := tb.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		tb.Fatal(err)
	}
	for _, body := range []string{"0123456789abcdefshared tail", "0123456789abcdef another"} {
		if _, err := s.PutString(body); err != nil {
			tb.Fatal(err)
		}
	}
	s.Close()
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func TestFallbackVerifiesBeforeCaching(t *testing.T) {
	remote := NewStore(16)
	body := strings.Repeat("remote body ", 8)
	cid, _ := remote.PutString(body)

	local := NewStore(16)
	local.SetFallback(func(c CID) ([]byte, bool) {
		b, err := remote.Get(c)
		return b, err == nil
	})
	got, err := local.GetString(cid)
	if err != nil || got != body {
		t.Fatalf("fallback Get = (%q, %v)", got, err)
	}
	// Cached: a second read works without the fallback.
	local.SetFallback(nil)
	if _, err := local.Get(cid); err != nil {
		t.Fatalf("cached Get: %v", err)
	}

	// A lying fallback is rejected.
	liar := NewStore(16)
	liar.SetFallback(func(CID) ([]byte, bool) { return []byte("wrong bytes entirely"), true })
	other, _ := ComputeCID([]byte("some other body"), 16)
	if _, err := liar.Get(other); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lying fallback err = %v, want ErrNotFound", err)
	}
}

func TestManifestVerify(t *testing.T) {
	s := NewStore(16)
	cid, _ := s.PutString(strings.Repeat("manifest body ", 8))
	m, _ := s.Stat(cid)
	if err := m.Verify(); err != nil {
		t.Fatalf("honest manifest: %v", err)
	}
	forged := m
	forged.Chunks = append([]ChunkHash(nil), m.Chunks...)
	forged.Chunks[0] = merkle.HashLeaf([]byte("swapped"))
	if err := forged.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged manifest err = %v, want ErrCorrupt", err)
	}
	short := m
	short.Chunks = m.Chunks[:len(m.Chunks)-1]
	if err := short.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated manifest err = %v, want ErrCorrupt", err)
	}
}

func TestParseCID(t *testing.T) {
	if _, err := ParseCID("zz"); !errors.Is(err, ErrBadCID) {
		t.Fatalf("ParseCID(zz) err = %v", err)
	}
	cid, _ := ComputeCID([]byte("x"), 0)
	if parsed, err := ParseCID(string(cid)); err != nil || parsed != cid {
		t.Fatalf("ParseCID round trip = (%s, %v)", parsed, err)
	}
}
