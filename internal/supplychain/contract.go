// Package supplychain implements contribution (2) of the paper: modelling
// news propagation as a blockchain data-flow supply chain (§VI, Fig. 4).
//
// Every propagation step — publishing an original item, relaying it, or
// deriving from it by the paper's operators (mixing, splitting, merging,
// inserting) — is a transaction handled by the news contract, which links
// the new item to its parent items: "this process will create a blockchain
// transaction and form a graph link from the current account into the
// referred parent account". The Graph type reads the propagation DAG from
// contract state and supports the paper's three queries: trace-back
// to the factual database root, ranking by degree of modification along
// the path, and originator identification for accountability.
package supplychain

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/store"
)

// ContractName routes news transactions.
const ContractName = "news"

// Errors returned by this package.
var (
	// ErrItemExists indicates a publish with a duplicate item id.
	ErrItemExists = errors.New("supplychain: item already exists")
	// ErrItemNotFound indicates an unknown item id.
	ErrItemNotFound = errors.New("supplychain: item not found")
	// ErrParentNotFound indicates a publish referencing a missing parent.
	ErrParentNotFound = errors.New("supplychain: parent not found")
	// ErrEmptyItem indicates a publish without id or body.
	ErrEmptyItem = errors.New("supplychain: empty item id or body")
	// ErrBodyConflict indicates a publish carrying both an inline text and
	// an off-chain content id — the body must live in exactly one place.
	ErrBodyConflict = errors.New("supplychain: both inline text and cid given")
	// ErrBadBodyRef indicates an off-chain body reference with a
	// non-positive size.
	ErrBadBodyRef = errors.New("supplychain: off-chain body ref needs positive size")
)

// Item is one node of the news supply chain: a statement introduced by an
// account, optionally derived from parent items.
type Item struct {
	ID      string       `json:"id"`
	Topic   corpus.Topic `json:"topic"`
	Text    string       `json:"text,omitempty"` // inline body (legacy path)
	CID     string       `json:"cid,omitempty"`  // off-chain body content id
	Size    int          `json:"size,omitempty"` // off-chain body length in bytes
	Creator string       `json:"creator"`        // hex address
	Parents []string     `json:"parents,omitempty"`
	Op      corpus.Op    `json:"op,omitempty"` // how it derives from parents
	Height  uint64       `json:"height"`
}

// publishArgs is the payload of news.publish. The body travels either
// inline in Text or off-chain as a CID+Size reference — exactly one.
type publishArgs struct {
	ID      string       `json:"id"`
	Topic   corpus.Topic `json:"topic"`
	Text    string       `json:"text,omitempty"`
	CID     string       `json:"cid,omitempty"`
	Size    int          `json:"size,omitempty"`
	Parents []string     `json:"parents,omitempty"`
	Op      corpus.Op    `json:"op,omitempty"`
}

// Contract is the news supply-chain chaincode.
type Contract struct{}

var _ contract.Contract = (*Contract)(nil)

// Name implements contract.Contract.
func (Contract) Name() string { return ContractName }

// Execute implements contract.Contract.
func (c Contract) Execute(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "publish":
		return c.publish(ctx, args)
	case "get":
		return c.get(ctx, args)
	case "list":
		return c.list(ctx)
	default:
		return nil, fmt.Errorf("%w: news.%s", contract.ErrUnknownMethod, method)
	}
}

func (c Contract) publish(ctx *contract.Context, args []byte) ([]byte, error) {
	var in publishArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, fmt.Errorf("supplychain: publish args: %w", err)
	}
	if in.ID == "" || (in.Text == "" && in.CID == "") {
		return nil, ErrEmptyItem
	}
	if in.Text != "" && in.CID != "" {
		return nil, fmt.Errorf("%w: %s", ErrBodyConflict, in.ID)
	}
	if in.CID != "" && in.Size <= 0 {
		return nil, fmt.Errorf("%w: %s", ErrBadBodyRef, in.ID)
	}
	key := "item/" + in.ID
	if ok, err := ctx.Has(key); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("%w: %s", ErrItemExists, in.ID)
	}
	// Parents must already be committed, which makes the graph a DAG by
	// construction: no item can reference a future item.
	for _, p := range in.Parents {
		if ok, err := ctx.Has("item/" + p); err != nil {
			return nil, err
		} else if !ok {
			return nil, fmt.Errorf("%w: %s", ErrParentNotFound, p)
		}
	}
	op := in.Op
	if op == "" {
		if len(in.Parents) > 0 {
			op = corpus.OpVerbatim
		}
	}
	item := Item{
		ID:      in.ID,
		Topic:   in.Topic,
		Text:    in.Text,
		CID:     in.CID,
		Size:    in.Size,
		Creator: ctx.Sender.String(),
		Parents: in.Parents,
		Op:      op,
		Height:  ctx.Height,
	}
	raw, err := json.Marshal(item)
	if err != nil {
		return nil, fmt.Errorf("supplychain: marshal: %w", err)
	}
	if err := ctx.Put(key, raw); err != nil {
		return nil, err
	}
	attrs := map[string]string{
		"id": item.ID, "creator": item.Creator, "topic": string(item.Topic), "op": string(op),
	}
	if item.CID != "" {
		attrs["cid"] = item.CID
	}
	if len(in.Parents) > 0 {
		attrs["parent0"] = in.Parents[0]
	}
	if err := ctx.Emit("published", attrs); err != nil {
		return nil, err
	}
	return raw, nil
}

func (c Contract) get(ctx *contract.Context, args []byte) ([]byte, error) {
	raw, err := ctx.Get("item/" + string(args))
	if errors.Is(err, store.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrItemNotFound, string(args))
	}
	return raw, err
}

func (c Contract) list(ctx *contract.Context) ([]byte, error) {
	ks, err := ctx.Keys("item/")
	if err != nil {
		return nil, err
	}
	items := make([]Item, 0, len(ks))
	for _, k := range ks {
		raw, err := ctx.Get(k)
		if err != nil {
			return nil, err
		}
		var it Item
		if err := json.Unmarshal(raw, &it); err != nil {
			return nil, fmt.Errorf("supplychain: unmarshal %s: %w", k, err)
		}
		items = append(items, it)
	}
	return json.Marshal(items)
}

// PublishPayload builds a news.publish payload with an inline body.
// Parents may be empty for an original item.
func PublishPayload(id string, topic corpus.Topic, text string, parents []string, op corpus.Op) ([]byte, error) {
	return json.Marshal(publishArgs{ID: id, Topic: topic, Text: text, Parents: parents, Op: op})
}

// PublishRefPayload builds a news.publish payload whose body lives
// off-chain: only the content id and size go into the transaction.
func PublishRefPayload(id string, topic corpus.Topic, cid string, size int, parents []string, op corpus.Op) ([]byte, error) {
	return json.Marshal(publishArgs{ID: id, Topic: topic, CID: cid, Size: size, Parents: parents, Op: op})
}

// GetItem queries one item through the engine.
func GetItem(e *contract.Engine, asker keys.Address, id string) (Item, error) {
	raw, err := e.Query(asker, ContractName+".get", []byte(id))
	if err != nil {
		return Item{}, err
	}
	return decodeItem(raw)
}
