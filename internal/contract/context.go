package contract

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/store"
)

// gasMeter tracks gas consumption against a budget.
type gasMeter struct {
	limit uint64
	used  uint64
}

func (g *gasMeter) charge(n uint64) error {
	if g.used+n > g.limit {
		g.used = g.limit
		return ErrOutOfGas
	}
	g.used += n
	return nil
}

// writeOp is a buffered state mutation.
type writeOp struct {
	value   []byte
	deleted bool
}

// overlay buffers reads and writes over the engine's state store,
// recording read/write sets for the optimistic parallel scheduler.
type overlay struct {
	base   *store.LSM
	writes map[string]writeOp
	reads  map[string]bool
}

func newOverlay(base *store.LSM) *overlay {
	return &overlay{base: base, writes: make(map[string]writeOp), reads: make(map[string]bool)}
}

func (o *overlay) get(key string) ([]byte, error) {
	v, ok, err := o.lookup(key)
	if err == nil && !ok {
		err = fmt.Errorf("%w: key %q", store.ErrNotFound, key)
	}
	return v, err
}

// lookup is get that reports a missing key as ok == false, building no
// error for it.
func (o *overlay) lookup(key string) ([]byte, bool, error) {
	o.reads[key] = true
	if op, ok := o.writes[key]; ok {
		if op.deleted {
			return nil, false, nil
		}
		return bytes.Clone(op.value), true, nil
	}
	return o.base.Lookup(key)
}

func (o *overlay) put(key string, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	o.writes[key] = writeOp{value: cp}
}

func (o *overlay) del(key string) {
	o.writes[key] = writeOp{deleted: true}
}

func (o *overlay) keys(prefix string) ([]string, error) {
	// A prefix scan reads the whole range: record it as a read of the
	// prefix itself; the scheduler treats prefix reads conservatively.
	o.reads[prefix+"*"] = true
	baseKeys, err := o.base.Keys(prefix)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(baseKeys))
	for _, k := range baseKeys {
		set[k] = true
	}
	for k, op := range o.writes {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if op.deleted {
			delete(set, k)
			continue
		}
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Context is the execution environment handed to a contract method. All
// state access is gas-metered and namespaced by contract name, so one
// contract cannot touch another's keys directly.
type Context struct {
	// Sender is the verified transaction signer.
	Sender keys.Address
	// TxID identifies the executing transaction.
	TxID ledger.TxID
	// Height is the block height being executed.
	Height uint64

	gas      *gasMeter
	overlay  *overlay
	contract string
	events   []Event
}

func (c *Context) key(k string) string { return c.contract + "/" + k }

// Get reads a state value from the contract's namespace.
func (c *Context) Get(key string) ([]byte, error) {
	if err := c.gas.charge(GasGet); err != nil {
		return nil, err
	}
	return c.overlay.get(c.key(key))
}

// Has reports whether a key exists. It costs what Get costs.
func (c *Context) Has(key string) (bool, error) {
	if err := c.gas.charge(GasGet); err != nil {
		return false, err
	}
	_, ok, err := c.overlay.lookup(c.key(key))
	return ok && err == nil, err
}

// Put writes a state value in the contract's namespace.
func (c *Context) Put(key string, val []byte) error {
	if err := c.gas.charge(GasPut + uint64(len(val))*GasPerByte); err != nil {
		return err
	}
	c.overlay.put(c.key(key), val)
	return nil
}

// Delete removes a key.
func (c *Context) Delete(key string) error {
	if err := c.gas.charge(GasDelete); err != nil {
		return err
	}
	c.overlay.del(c.key(key))
	return nil
}

// Keys lists the contract's keys under prefix (namespace stripped).
func (c *Context) Keys(prefix string) ([]string, error) {
	if err := c.gas.charge(GasKeys); err != nil {
		return nil, err
	}
	full, err := c.overlay.keys(c.key(prefix))
	if err != nil {
		return nil, err
	}
	ns := c.contract + "/"
	out := make([]string, len(full))
	for i, k := range full {
		out[i] = strings.TrimPrefix(k, ns)
	}
	return out, nil
}

// GetExternal reads a key from another contract's namespace, read-only —
// the equivalent of Fabric's cross-chaincode query. The newsroom contract
// uses it to check identity-registry records before accepting content.
func (c *Context) GetExternal(contractName, key string) ([]byte, error) {
	if err := c.gas.charge(GasGet); err != nil {
		return nil, err
	}
	return c.overlay.get(contractName + "/" + key)
}

// Emit records an event on the receipt.
func (c *Context) Emit(eventType string, attrs map[string]string) error {
	if err := c.gas.charge(GasEmit); err != nil {
		return err
	}
	cp := make(map[string]string, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	c.events = append(c.events, Event{Contract: c.contract, Type: eventType, Attrs: cp})
	return nil
}

// GasUsed returns gas consumed so far.
func (c *Context) GasUsed() uint64 { return c.gas.used }
