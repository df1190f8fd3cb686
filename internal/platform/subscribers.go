package platform

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/commitbus"
	"repro/internal/contract"
	"repro/internal/evidence"
	"repro/internal/ranking"
	"repro/internal/store"
)

// Platform-owned commit-bus subscriber names (stable: they key
// checkpoint blobs).
const (
	stateSubscriberName   = "contract-state"
	penaltySubscriberName = "rank-penalties"
)

// ---------------------------------------------------------------------------
// contractState: snapshot/restore adapter over the engine KV.
// ---------------------------------------------------------------------------

// contractState puts the engine's committed key-value state on the bus.
// Execution already applied the block's writes before publish, so
// OnCommit is a no-op — the subscriber exists for its Snapshot/Restore
// half, which is what lets a checkpointed node skip re-executing the
// whole chain. The blob does not hold the state: it names the segments of
// the state log that do, and carries the memtable (store.LSM.Manifest).
type contractState struct {
	engine *contract.Engine
}

var _ commitbus.Subscriber = (*contractState)(nil)

// Name implements commitbus.Subscriber.
func (c *contractState) Name() string { return stateSubscriberName }

// OnCommit implements commitbus.Subscriber.
func (c *contractState) OnCommit(commitbus.CommitEvent) error { return nil }

// Snapshot implements commitbus.Subscriber.
func (c *contractState) Snapshot() ([]byte, error) { return c.engine.StateCheckpoint() }

// Restore implements commitbus.Subscriber. A checkpoint written before the
// state had a log of its own holds the whole state as a gob map: it is
// imported into the log as one segment.
func (c *contractState) Restore(data []byte) error {
	if store.IsManifest(data) {
		return c.engine.RestoreStateCheckpoint(data)
	}
	snap := make(map[string][]byte)
	if len(data) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			return fmt.Errorf("platform: decode contract state: %w", err)
		}
	}
	return c.engine.RestoreState(snap)
}

// ---------------------------------------------------------------------------
// penaltyForwarder: the accountability loop.
// ---------------------------------------------------------------------------

// penaltyForwarder closes the accountability loop: a recorded consensus
// offence (evidence "slashed" event) burns the offender's ranking stake
// by enqueueing an authority rank.penalize tx, which lands in the next
// block. It is stateless — the enqueued txs live in the mempool and the
// resulting penalties in contract state — so its checkpoint blob is
// empty.
type penaltyForwarder struct {
	p *Platform
}

var _ commitbus.Subscriber = (*penaltyForwarder)(nil)

// Name implements commitbus.Subscriber.
func (f *penaltyForwarder) Name() string { return penaltySubscriberName }

// OnCommit implements commitbus.Subscriber. It runs with p.mu held (the
// bus publishes under the platform commit lock), which
// authoritySubmitLocked requires.
func (f *penaltyForwarder) OnCommit(ev commitbus.CommitEvent) error {
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != evidence.ContractName || e.Type != "slashed" {
				continue
			}
			payload, err := ranking.PenalizePayload(e.Attrs["offender"])
			if err != nil {
				return err
			}
			if err := f.p.authoritySubmitLocked("rank.penalize", payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements commitbus.Subscriber.
func (f *penaltyForwarder) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements commitbus.Subscriber.
func (f *penaltyForwarder) Restore([]byte) error { return nil }
