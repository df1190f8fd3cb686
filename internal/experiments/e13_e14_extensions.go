package experiments

import (
	"repro/internal/aidetect"
	"repro/internal/intervene"
	"repro/internal/predict"
	"repro/internal/social"
)

// e13Config sizes the outbreak-prediction experiment (§VII future work:
// "anticipate the onset of a fake news propagation before it is actually
// propagated and disputed").
type e13Config struct {
	Windows []int
	Base    predict.DatasetConfig
}

// defaultE13 returns the standard configuration.
func defaultE13() e13Config {
	return e13Config{Windows: []int{1, 2, 3, 4}, Base: predict.DefaultDatasetConfig()}
}

// runE13 trains the outbreak predictor at several observation windows and
// reports AUC/F1 — quantifying how early the platform can act.
func runE13(cfg e13Config) (*Table, error) {
	t := &Table{
		Title:  "Outbreak prediction vs observation window (extension, §VII)",
		Claim:  "fake-news outbreaks are predictable from early cascade shape + platform signals",
		Header: []string{"window_rounds", "examples", "outbreak_rate", "auc", "f1"},
	}
	for _, w := range cfg.Windows {
		dcfg := cfg.Base
		dcfg.Window = w
		examples, baseRate, err := predict.BuildDataset(dcfg)
		if err != nil {
			return nil, err
		}
		train, test := predict.SplitExamples(examples, 0.7, dcfg.Seed)
		m := predict.NewModel()
		if err := m.Train(train); err != nil {
			return nil, err
		}
		scores := make([]float64, len(test))
		labels := make([]bool, len(test))
		for i, ex := range test {
			s, err := m.Score(ex.Obs)
			if err != nil {
				return nil, err
			}
			scores[i] = s
			labels[i] = ex.Outbreak
		}
		ev := aidetect.Metrics(scores, labels)
		t.AddRow(d(w), d(len(examples)), f3(baseRate), f3(ev.AUC), f3(ev.F1))
	}
	return t, nil
}

// e14Config sizes the personalized-intervention experiment (§VII future
// work: personalization of intervention mechanisms).
type e14Config struct {
	Net     social.Config
	Budgets []int
	Runs    int
	Seed    int64
}

// defaultE14 returns the standard configuration.
func defaultE14() e14Config {
	net := social.DefaultConfig()
	net.Users, net.Bots, net.Cyborgs = 2500, 160, 90
	return e14Config{Net: net, Budgets: []int{30, 60, 120}, Runs: 15, Seed: 14}
}

// runE14 compares correction-targeting strategies at equal budgets. Two
// metrics per strategy: ever-misled (exposure the campaign failed to
// prevent — lower is better) and residual believers after debunking.
func runE14(cfg e14Config) (*Table, error) {
	net, err := social.NewNetwork(cfg.Net)
	if err != nil {
		return nil, err
	}
	profiles := intervene.Profiles(net, cfg.Seed)
	t := &Table{
		Title:  "Correction targeting at equal budget (extension, §VII)",
		Claim:  "personalized, community-routed corrections beat one-size-fits-all interventions",
		Header: []string{"budget", "strategy", "ever_misled", "residual_believers", "corrected", "accepts_per_budget"},
	}
	for _, budget := range cfg.Budgets {
		for _, s := range intervene.AllStrategies {
			var misled, residual, corrected, accepts float64
			for r := 0; r < cfg.Runs; r++ {
				res, err := intervene.Run(net, profiles, s, intervene.Config{
					HeadStart:   3,
					TotalRounds: 14,
					Budget:      budget,
					Params:      social.DefaultSpreadParams(),
					Seeds:       net.BotSeeds(6),
					RngSeed:     cfg.Seed + int64(r)*17,
				})
				if err != nil {
					return nil, err
				}
				misled += float64(res.EverMisled)
				residual += float64(res.FakeReach)
				corrected += float64(res.Corrected)
				accepts += float64(res.InitialAccepts)
			}
			n := float64(cfg.Runs)
			t.AddRow(d(budget), string(s), f1(misled/n), f1(residual/n), f1(corrected/n),
				f3(accepts/n/float64(budget)))
		}
	}
	return t, nil
}
