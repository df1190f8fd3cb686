package platform

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/commitbus"
	"repro/internal/contract"
	"repro/internal/evidence"
	"repro/internal/ranking"
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
// whole chain.
type contractState struct {
	engine *contract.Engine
}

var _ commitbus.Subscriber = (*contractState)(nil)

// Name implements commitbus.Subscriber.
func (c *contractState) Name() string { return stateSubscriberName }

// OnCommit implements commitbus.Subscriber.
func (c *contractState) OnCommit(commitbus.CommitEvent) error { return nil }

// Snapshot implements commitbus.Subscriber.
func (c *contractState) Snapshot() ([]byte, error) {
	snap, err := c.engine.StateSnapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("platform: encode contract state: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore implements commitbus.Subscriber.
func (c *contractState) Restore(data []byte) error {
	snap := make(map[string][]byte)
	if len(data) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			return fmt.Errorf("platform: decode contract state: %w", err)
		}
	}
	c.engine.RestoreState(snap)
	return nil
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
