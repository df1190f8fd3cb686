package experiments

import (
	"repro/internal/ranking"
)

// e5WeightsConfig sizes the combined-mechanism weights ablation.
type e5WeightsConfig struct {
	Base e5Config
	// BiasedFrac fixes the adversarial pressure for the sweep.
	BiasedFrac float64
	// Settings are the weight mixes to compare.
	Settings []weightSetting
}

// weightSetting is one labelled weights configuration.
type weightSetting struct {
	Name    string
	Weights ranking.Weights
}

// defaultE5Weights returns the DESIGN.md ablation grid.
func defaultE5Weights() e5WeightsConfig {
	base := defaultE5()
	base.BiasedFracs = nil // unused by the sweep
	return e5WeightsConfig{
		Base:       base,
		BiasedFrac: 0.45,
		Settings: []weightSetting{
			{"paper_default", ranking.DefaultWeights()},
			{"crowd_heavy", ranking.Weights{AI: 0.1, Trace: 0.2, Crowd: 0.7}},
			{"trace_heavy", ranking.Weights{AI: 0.1, Trace: 0.8, Crowd: 0.1}},
			{"ai_heavy", ranking.Weights{AI: 0.8, Trace: 0.1, Crowd: 0.1}},
			{"uniform", ranking.Weights{AI: 1. / 3, Trace: 1. / 3, Crowd: 1. / 3}},
		},
	}
}

// runE5Weights sweeps the combined mechanism's signal weights at a fixed
// biased-voter share — the ablation DESIGN.md calls out for the paper's
// "AI is tightly integrated with the blockchain" design choice. The
// expected shape: the balanced defaults are competitive, crowd-heavy
// mixes degrade under bias, and single-signal-heavy mixes inherit that
// signal's blind spots.
func runE5Weights(cfg e5WeightsConfig) (*Table, error) {
	t := &Table{
		Title:  "Combined-mechanism weight ablation (biased share fixed)",
		Claim:  "the integrated multi-signal design beats any single dominant signal",
		Header: []string{"weights", "ai", "trace", "crowd", "f1_known_bloc", "f1_fresh_bloc"},
	}
	for _, s := range cfg.Settings {
		// Known bloc: warm-up items let the reputation system learn who
		// the biased voters are before evaluation.
		warm, err := runE5WeightsCell(cfg.Base, cfg.BiasedFrac, s.Weights)
		if err != nil {
			return nil, err
		}
		// Fresh bloc: no resolved history — reputations are flat, so a
		// crowd-heavy mix degenerates toward plain majority. This is the
		// Sybil cold-start the multi-signal design covers.
		cold := cfg.Base
		cold.WarmupItems = 0
		coldF1, err := runE5WeightsCell(cold, cfg.BiasedFrac, s.Weights)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name, f3(s.Weights.AI), f3(s.Weights.Trace), f3(s.Weights.Crowd), f3(warm), f3(coldF1))
	}
	return t, nil
}

// runE5WeightsCell runs one E5 cell with custom combined weights and
// returns the combined mechanism's F1.
func runE5WeightsCell(base e5Config, biasedFrac float64, w ranking.Weights) (float64, error) {
	scores, err := runE5CellWeighted(base, biasedFrac, w)
	if err != nil {
		return 0, err
	}
	return scores[ranking.MechanismCombined], nil
}
