package supplychain

import (
	"errors"
	"fmt"
)

// Process supply chain (Fig. 3): the conventional pre-configured workflow
// blockchain the paper contrasts with its dynamic news graph. Stages are
// fixed at construction; every asset moves linearly through them. This is
// the E3 baseline — its trace is O(stages) regardless of network size,
// whereas the news chain's trace grows with the propagation DAG (E4).

// Process errors.
var (
	// ErrNoStages indicates construction without stages.
	ErrNoStages = errors.New("supplychain: process needs at least one stage")
	// ErrAssetExists indicates a duplicate asset registration.
	ErrAssetExists = errors.New("supplychain: asset already registered")
	// ErrAssetNotFound indicates an unknown asset.
	ErrAssetNotFound = errors.New("supplychain: asset not found")
	// ErrStageOrder indicates an out-of-order stage transition.
	ErrStageOrder = errors.New("supplychain: stage transition out of order")
	// ErrWrongActor indicates an actor not assigned to the stage.
	ErrWrongActor = errors.New("supplychain: actor not assigned to stage")
)

// StageRecord is one completed workflow step for an asset.
type StageRecord struct {
	Stage string `json:"stage"`
	Actor string `json:"actor"`
	Note  string `json:"note,omitempty"`
}

// ProcessChain is the fixed-workflow supply chain. It is not a contract —
// it demonstrates the architectural contrast, so a lean in-memory ledger
// with the same append-only discipline suffices.
type ProcessChain struct {
	stages []string
	// actors maps stage -> the only actor allowed to perform it
	// (pre-configured, per the paper's "pre-fixed network architecture").
	actors map[string]string
	assets map[string][]StageRecord
}

// NewProcessChain creates a workflow with the given ordered stages and the
// per-stage actor assignment.
func NewProcessChain(stages []string, actors map[string]string) (*ProcessChain, error) {
	if len(stages) == 0 {
		return nil, ErrNoStages
	}
	cp := make([]string, len(stages))
	copy(cp, stages)
	as := make(map[string]string, len(actors))
	for k, v := range actors {
		as[k] = v
	}
	return &ProcessChain{stages: cp, actors: as, assets: make(map[string][]StageRecord)}, nil
}

// Register introduces an asset at stage zero.
func (p *ProcessChain) Register(assetID, actor string) error {
	if _, ok := p.assets[assetID]; ok {
		return fmt.Errorf("%w: %s", ErrAssetExists, assetID)
	}
	if want, ok := p.actors[p.stages[0]]; ok && want != actor {
		return fmt.Errorf("%w: stage %s wants %s", ErrWrongActor, p.stages[0], want)
	}
	p.assets[assetID] = []StageRecord{{Stage: p.stages[0], Actor: actor}}
	return nil
}

// Advance moves an asset to its next stage.
func (p *ProcessChain) Advance(assetID, actor, note string) error {
	recs, ok := p.assets[assetID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrAssetNotFound, assetID)
	}
	if len(recs) >= len(p.stages) {
		return fmt.Errorf("%w: asset %s already completed", ErrStageOrder, assetID)
	}
	next := p.stages[len(recs)]
	if want, ok := p.actors[next]; ok && want != actor {
		return fmt.Errorf("%w: stage %s wants %s", ErrWrongActor, next, want)
	}
	p.assets[assetID] = append(recs, StageRecord{Stage: next, Actor: actor, Note: note})
	return nil
}

// Trace returns the asset's complete, linear provenance — O(stages).
func (p *ProcessChain) Trace(assetID string) ([]StageRecord, error) {
	recs, ok := p.assets[assetID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrAssetNotFound, assetID)
	}
	out := make([]StageRecord, len(recs))
	copy(out, recs)
	return out, nil
}

// Completed reports whether an asset finished every stage.
func (p *ProcessChain) Completed(assetID string) bool {
	return len(p.assets[assetID]) == len(p.stages)
}
