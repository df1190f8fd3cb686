package platform

import (
	"repro/internal/commitbus"
	"repro/internal/contract"
)

// stateSubscriberName names the contract-state subscriber on the commit
// bus (stable: it keys the state's checkpoint blob).
const stateSubscriberName = "contract-state"

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

// Restore implements commitbus.Subscriber. A blob that is not a segment
// manifest — the gob map of a checkpoint written before the state had a
// log of its own — fails here, and Open replays the chain instead.
func (c *contractState) Restore(data []byte) error { return c.engine.RestoreStateCheckpoint(data) }
