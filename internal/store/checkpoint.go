package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// Checkpoint is a durable cut of a node's derived state: the chain
// height it covers, verification hashes, and one opaque snapshot blob
// per derived view. A node restarting with a valid checkpoint
// restores the blobs and replays only the WAL tail above Height instead
// of re-executing the whole chain (O(tail) instead of O(chain length)).
//
// The file is CRC-guarded like the WAL — [magic][len][crc32][gob payload]
// — and written atomically (temp file + rename), so a torn or tampered
// checkpoint is detected on read and the caller falls back to full
// replay; the checkpoint is an accelerator, never a trust root.
type Checkpoint struct {
	// Height is the number of chain blocks the snapshot covers.
	Height uint64
	// HeadID is the hex id of the block at Height-1 (empty at height 0);
	// restore verifies it against the reopened chain.
	HeadID string
	// StateHash is the hex contract-state root at Height; restore
	// recomputes the root from the restored state and rejects mismatches.
	StateHash string
	// RootScheme is the contract.StateRootScheme StateHash was computed
	// under (0 in checkpoints written before the field existed). Restore
	// refuses another scheme's checkpoint rather than report its honest
	// StateHash as a mismatch.
	RootScheme int
	// Chain is the ledger's serialized index snapshot (block ids,
	// per-sender nonces), letting reopen skip decoding and re-validating
	// the checkpointed log prefix.
	Chain []byte
	// Subscribers holds each view's snapshot, by name: "contract-state",
	// "factdb-index" and "search-index". The field keeps the name it was
	// written under, so older checkpoints decode.
	Subscribers map[string][]byte
}

// checkpointMagic guards against reading an unrelated file.
var checkpointMagic = [8]byte{'T', 'N', 'C', 'K', 'P', 'T', '0', '1'}

// WriteCheckpoint atomically persists a checkpoint at path.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return fmt.Errorf("store: encode checkpoint: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())

	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("store: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publish checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and verifies a checkpoint. It returns ErrNotFound
// when no checkpoint exists and ErrCorrupt when the frame fails
// verification (bad magic, truncated, or CRC mismatch).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: checkpoint %s", ErrNotFound, path)
		}
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	if len(raw) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: checkpoint truncated", ErrCorrupt)
	}
	if !bytes.Equal(raw[:len(checkpointMagic)], checkpointMagic[:]) {
		return nil, fmt.Errorf("%w: checkpoint bad magic", ErrCorrupt)
	}
	body := raw[len(checkpointMagic):]
	size := binary.BigEndian.Uint32(body[0:4])
	want := binary.BigEndian.Uint32(body[4:8])
	payload := body[8:]
	if uint32(len(payload)) != size {
		return nil, fmt.Errorf("%w: checkpoint length %d want %d", ErrCorrupt, len(payload), size)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: checkpoint crc mismatch", ErrCorrupt)
	}
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: checkpoint decode: %v", ErrCorrupt, err)
	}
	return &cp, nil
}
