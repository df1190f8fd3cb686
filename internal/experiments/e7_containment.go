package experiments

import (
	"repro/internal/social"
)

// e7Config sizes the propagation-containment experiment.
type e7Config struct {
	Net       social.Config
	Rounds    int
	Runs      int
	Seeds     int
	FlagDelay int
}

// defaultE7 returns the standard configuration.
func defaultE7() e7Config {
	cfg := social.DefaultConfig()
	cfg.Users, cfg.Bots, cfg.Cyborgs = 4000, 250, 150
	return e7Config{Net: cfg, Rounds: 14, Runs: 15, Seeds: 8, FlagDelay: 2}
}

// runE7 quantifies the paper's headline claim (§I): fake vs factual reach
// per round, with and without the platform's interventions (flagging after
// detection plus source demotion plus the trust-label boost for verified
// factual content). The series should show fake news winning unchecked and
// factual reporting outpacing it once the platform intervenes.
func runE7(cfg e7Config) (*Table, error) {
	net, err := social.NewNetwork(cfg.Net)
	if err != nil {
		return nil, err
	}
	fakeSeeds := net.BotSeeds(cfg.Seeds)
	factSeeds := net.RegularSeeds(cfg.Seeds)

	baseline := social.DefaultSpreadParams() // no intervention
	intervened := social.DefaultSpreadParams()
	intervened.FlagDelay = cfg.FlagDelay
	intervened.FactualBoost = 1.6

	avgSeries := func(kind social.ItemKind, seeds []int, p social.SpreadParams, demote bool) ([]float64, error) {
		if demote {
			for _, s := range seeds {
				net.Demote(s)
			}
			defer net.ResetDemotions()
		}
		out := make([]float64, cfg.Rounds+1)
		for r := 0; r < cfg.Runs; r++ {
			res, err := net.Spread(kind, seeds, p, cfg.Rounds, int64(5000+r))
			if err != nil {
				return nil, err
			}
			for i := 0; i <= cfg.Rounds; i++ {
				if i < len(res.Steps) {
					out[i] += float64(res.Steps[i].Total)
				} else {
					out[i] += float64(res.Reached)
				}
			}
		}
		for i := range out {
			out[i] /= float64(cfg.Runs)
		}
		return out, nil
	}

	fakeFree, err := avgSeries(social.ItemFake, fakeSeeds, baseline, false)
	if err != nil {
		return nil, err
	}
	factFree, err := avgSeries(social.ItemFactual, factSeeds, baseline, false)
	if err != nil {
		return nil, err
	}
	fakeInt, err := avgSeries(social.ItemFake, fakeSeeds, intervened, true)
	if err != nil {
		return nil, err
	}
	factInt, err := avgSeries(social.ItemFactual, factSeeds, intervened, false)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Fake vs factual reach per round, with and without intervention",
		Claim:  "factual-sourced reporting can outpace the spread of fake news",
		Header: []string{"round", "fake_free", "factual_free", "fake_intervened", "factual_intervened"},
	}
	for r := 0; r <= cfg.Rounds; r++ {
		t.AddRow(d(r), f1(fakeFree[r]), f1(factFree[r]), f1(fakeInt[r]), f1(factInt[r]))
	}
	return t, nil
}
