package experiments

import (
	"math/rand"

	"repro/internal/aidetect"
	"repro/internal/corpus"
)

// e11Config sizes the text-detection experiment.
type e11Config struct {
	Factual int
	Fake    int
	Seed    int64
}

// defaultE11 returns the standard configuration.
func defaultE11() e11Config { return e11Config{Factual: 800, Fake: 800, Seed: 11} }

// runE11 evaluates the AI text component (§IV component 3): naive Bayes,
// logistic regression and the emotion-lexicon-only ablation on a held-out
// synthetic test set. The expected shape: the learned models beat the
// lexicon, but none are perfect — the AI-alone gap that motivates the
// trace-based ranking (E5).
func runE11(cfg e11Config) (*Table, error) {
	t := &Table{
		Title:  "Fake-text detection: classifier comparison",
		Claim:  "AI detection helps but is insufficient alone (motivates blockchain trace)",
		Header: []string{"model", "accuracy", "precision", "recall", "f1", "auc"},
	}
	c := corpus.NewGenerator(cfg.Seed).Generate(cfg.Factual, cfg.Fake)
	train, test := c.Split(0.7, rand.New(rand.NewSource(cfg.Seed)))
	models := []struct {
		name string
		c    aidetect.TextClassifier
	}{
		{"naive_bayes", aidetect.NewNaiveBayes()},
		{"logistic_regression", aidetect.NewLogisticRegression()},
		{"emotion_lexicon_only", aidetect.NewEmotionOnly()},
	}
	for _, m := range models {
		if err := m.c.Train(train); err != nil {
			return nil, err
		}
		ev, err := aidetect.Evaluate(m.c, test)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, f3(ev.Accuracy), f3(ev.Precision), f3(ev.Recall), f3(ev.F1), f3(ev.AUC))
	}
	return t, nil
}

// e12Config sizes the media-tamper-detection experiment.
type e12Config struct {
	Samples   int
	MediaSize int
	Strengths []float64
	Seed      int64
}

// defaultE12 returns the standard configuration.
func defaultE12() e12Config {
	return e12Config{
		Samples: 60, MediaSize: 8192,
		Strengths: []float64{0, 0.05, 0.1, 0.25, 0.5, 0.9},
		Seed:      12,
	}
}

// runE12 evaluates the fake-multimedia component (§IV component 2):
// reference-based detection (on-chain provenance) catches everything;
// blind detection degrades gracefully as tamper strength falls.
func runE12(cfg e12Config) (*Table, error) {
	t := &Table{
		Title:  "Media tamper detection vs tamper strength",
		Claim:  "blockchain provenance catches any edit; blind AI detection needs visible damage",
		Header: []string{"strength", "reference_detect", "blind_detect@0.05", "avg_blind_score"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	det := aidetect.NewMediaDetector()
	for _, strength := range cfg.Strengths {
		refHits, blindHits := 0, 0
		var blindSum float64
		for s := 0; s < cfg.Samples; s++ {
			m := aidetect.CaptureMedia(rng, "m", "cam", cfg.MediaSize)
			refContent := aidetect.ContentHash(m.Data)
			refPH, err := aidetect.ComputePHash(m.Data)
			if err != nil {
				return nil, err
			}
			tampered := aidetect.Tamper(m, strength, rng)
			caught, _, err := aidetect.VerifyAgainstReference(tampered, refContent, refPH)
			if err != nil {
				return nil, err
			}
			if caught {
				refHits++
			}
			score, err := det.Score(tampered)
			if err != nil {
				return nil, err
			}
			blindSum += score
			if score > 0.05 {
				blindHits++
			}
		}
		n := float64(cfg.Samples)
		t.AddRow(f3(strength), f3(float64(refHits)/n), f3(float64(blindHits)/n), f3(blindSum/n))
	}
	return t, nil
}
